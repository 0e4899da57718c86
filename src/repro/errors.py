"""Exception hierarchy for the FragDroid reproduction.

Every layer of the stack (APK model, smali toolchain, device emulator,
explorer) raises subclasses of :class:`ReproError` so callers can catch
errors from one layer without accidentally swallowing another layer's bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# APK / packaging layer
# --------------------------------------------------------------------------

class ApkError(ReproError):
    """Malformed or inconsistent APK package."""


class ManifestError(ApkError):
    """Invalid AndroidManifest content (duplicate components, bad names)."""


class ResourceError(ApkError):
    """Resource table violation (duplicate IDs, unknown resource names)."""


class PackedApkError(ApkError):
    """The APK is packed/encrypted and cannot be decoded.

    Mirrors the apps the paper had to rule out of the 217 before selecting
    the 15 evaluation targets (Section VII-A).
    """


# --------------------------------------------------------------------------
# Smali toolchain
# --------------------------------------------------------------------------

class SmaliError(ReproError):
    """Problems assembling or parsing smali code."""


class DecompileError(SmaliError):
    """The Java decompiler could not process a smali class."""


# --------------------------------------------------------------------------
# Device emulator
# --------------------------------------------------------------------------

class DeviceError(ReproError):
    """Generic device-level failure."""


class AppNotInstalledError(DeviceError):
    """Operation targeted a package that is not installed."""


class ActivityNotFoundError(DeviceError):
    """Intent resolution failed: no matching activity.

    Matches the ``android.content.ActivityNotFoundException`` semantics.
    """


class SecurityException(DeviceError):
    """Component not exported and caller lacks permission to start it."""


class AppCrashError(DeviceError):
    """The app force-closed (FC) while handling an event."""

    def __init__(self, package: str, component: str, reason: str) -> None:
        super().__init__(f"FC in {package} ({component}): {reason}")
        self.package = package
        self.component = component
        self.reason = reason


class TransientError(DeviceError):
    """A retryable, environment-caused failure (flaky cable, busy adb
    server, momentary unresponsiveness) — the class of errors the
    resilience layer (:mod:`repro.faults`) is allowed to retry."""


class TransientAdbError(TransientError):
    """An adb command failed for a transient reason (``error: device
    still authorizing``, ``error: closed``); reissuing it usually works."""


class CommandTimeoutError(TransientError):
    """A command or widget interaction hung past its deadline.

    Covers both an adb command that never returns and an ANR-style
    unresponsive widget — from the harness's perspective both surface
    as the instrumentation timing out.
    """


class DeviceDisconnectedError(TransientAdbError):
    """The device dropped off the bridge mid-run (``adb devices`` shows
    it offline); an ``adb reconnect`` is required before retrying."""


class WorkerDiedError(ReproError):
    """A sweep worker process died mid-chunk (OOM kill, SIGKILL,
    ``BrokenProcessPool``).

    Every app of the dead chunk — including those the worker had
    already finished, whose results died with it — is marked with this
    error instead of aborting the whole sweep.  The service scheduler
    (:mod:`repro.serve`) re-admits such apps under a retry policy.
    """


class ReflectionError(DeviceError):
    """A reflective fragment switch failed.

    Covers both paper-reported failure modes: missing constructor
    parameters (com.inditex.zara) and fragments not managed by a
    FragmentManager (com.mobilemotion.dubsmash).
    """


class WidgetNotFoundError(DeviceError):
    """A driver operation referenced a widget absent from the current UI."""


# --------------------------------------------------------------------------
# Explorer
# --------------------------------------------------------------------------

class ExplorationError(ReproError):
    """FragDroid's exploration loop hit an unrecoverable condition."""


class TestCaseError(ExplorationError):
    """A generated test case could not be compiled or replayed."""

    # Not a pytest class, despite the name.
    __test__ = False


# --------------------------------------------------------------------------
# Analysis service (repro.serve)
# --------------------------------------------------------------------------

class ServeError(ReproError):
    """A failure in the analysis service layer (:mod:`repro.serve`)."""


class AdmissionError(ServeError):
    """A job submission was rejected by admission control.

    The typed supertype API clients switch on: the queue is full
    (:class:`QueueFullError`), a budget is out of bounds
    (:class:`JobBudgetError`), or the job references unknown apps.
    """


class QueueFullError(AdmissionError):
    """The job queue is at its bound; backpressure — resubmit later."""


class JobBudgetError(AdmissionError):
    """A per-job budget (events, apps, time) failed validation at
    submit: non-positive, or beyond the server's admission caps."""


class UnknownJobError(ServeError):
    """An operation referenced a job id the service does not know."""


class JobStateError(ServeError):
    """An operation is invalid for the job's current state (e.g.
    cancelling a job that already finished)."""


# --------------------------------------------------------------------------
# Persistence layer
# --------------------------------------------------------------------------

class StoreError(ReproError, ValueError):
    """A stored document is not a readable JSON object (a ``ValueError``
    too, so handlers written for ``json`` decode errors still catch it)."""
