"""Crash-safe persistence of job state.

The journal is what makes ``repro serve`` restartable: every job
transition — admission, each completed round of apps, the terminal
state — is written as one ``<job_id>.json`` document of a
:class:`~repro.store.DocumentStore`, atomically, so a crash between
writes leaves either the previous consistent snapshot or the new one,
never interleaved bytes.

On restart the service loads every entry; jobs in a non-terminal state
are re-admitted with their ``completed`` app rows intact, so work that
was already journaled is never re-analyzed and never lands twice in
the run registry (the registry record is written exactly once, at the
job's terminal transition).

A corrupt, truncated, or foreign-schema entry is *skipped with a
warning* and tallied on ``self.skipped`` — a damaged journal degrades,
it never prevents the service from starting.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import List, Optional

from repro.serve.jobs import ACTIVE_STATES, Job
from repro.store import DocumentStore, default_dir


def default_journal_dir() -> pathlib.Path:
    """``$FRAGDROID_SERVE_DIR`` or ``~/.cache/fragdroid/serve``."""
    return default_dir("FRAGDROID_SERVE_DIR", "serve")


class JobJournal(DocumentStore):
    """One atomically-written JSON snapshot per job."""

    kind = "job journal entry"

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        super().__init__(directory if directory is not None
                         else default_journal_dir())

    def write(self, job: Job) -> None:
        """Persist the job's current snapshot (atomic replace)."""
        self.put(job.job_id,
                 json.dumps(job.to_dict(), indent=2, sort_keys=True) + "\n")

    def load(self, job_id: str) -> Job:
        """A job by id (unique prefixes accepted)."""
        return Job.from_dict(self.read(self.resolve(job_id)))

    def jobs(self) -> List[Job]:
        """Every readable journal entry, oldest submission first;
        unreadable entries are skipped with a warning."""
        jobs = self.documents(Job.from_dict)
        jobs.sort(key=lambda j: (j.created, j.job_id))
        return jobs

    def in_flight(self) -> List[Job]:
        """Journaled jobs a restarted service must resume."""
        return [job for job in self.jobs() if job.state in ACTIVE_STATES]
