"""Every report of the fixed CLI sweep in `tests.report_sweep` matches its
committed digest: exit code, stdout and stderr, byte for byte. A change
that moves report bytes on purpose regenerates the digests with
``python -m tests.report_sweep --write``."""

from tests.report_sweep import load_digests, moved_entries, run_sweep


def test_reports_match_committed_digests():
    assert moved_entries(load_digests(), run_sweep()) == []
