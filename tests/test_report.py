"""The report channel shared by loadd and statd (``repro.net.report``).

The wire formats, damage handling and daemons are exercised per
family in tests/test_loadd.py and tests/test_statd.py; here is the
one staleness rule both families' readers apply.
"""

import pytest

from repro.net.loadd import LoadReport
from repro.net.report import is_stale
from repro.net.statd import StatReport


@pytest.mark.parametrize("make,stale_s", [
    (lambda host, time_s: LoadReport(host, time_s, 2), 15),
    (lambda host, time_s: StatReport(host, time_s, 0), 30),
], ids=["loadreport", "statreport"])
def test_is_stale_drops_old_and_keeps_future_reports(make, stale_s):
    now_s = 100
    assert not is_stale(make("brick", now_s), now_s, stale_s)
    # a peer whose clock runs ahead counts as age zero
    assert not is_stale(make("brador", now_s + 3), now_s, stale_s)
    # exactly at the limit is still fresh; one second past is not
    assert not is_stale(make("schooner", now_s - stale_s), now_s,
                        stale_s)
    assert is_stale(make("schooner", now_s - stale_s - 1), now_s,
                    stale_s)
