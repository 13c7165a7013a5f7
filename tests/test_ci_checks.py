"""CI's workflow and ci/checks.py agree, and the checks' shared pin comparison names what differs.

Nothing here generates a workload; `python3 ci/checks.py` runs the workload-scale checks themselves.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "ci"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
RUNS = [(workload, trace) for workload, traces in checks.RUNS.items() for trace in traces]


def _workflow_checks() -> list[str]:
    """Each check name a workflow step passes to ci/checks.py, once per step that passes it."""
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    return [name for step in steps for names in re.findall(r"python3 ci/checks\.py ([\w -]+)", step.get("run", ""))
            for name in names.split()]


def test_each_check_is_run_by_exactly_one_workflow_step():
    named = _workflow_checks()
    assert set(named) <= set(checks.CHECKS), f"the workflow names no such check: {set(named) - set(checks.CHECKS)}"
    assert Counter(named) == dict.fromkeys(checks.CHECKS, 1)


def test_the_workflow_holds_no_inline_python_and_no_pin():
    text = WORKFLOW.read_text()
    assert "<<" not in text and " -c " not in text
    assert not re.search(r"[0-9a-f]{64}", text)


def test_every_pinned_workload_is_a_benchmark_workload():
    assert set(checks.PINS) <= set(WORKLOADS)
    assert set(checks.RUNS) <= set(WORKLOADS)


def _holding_run(workload: str, trace: int) -> tuple[dict, dict, list[tuple]]:
    """A run.py last line and report.json that hold every pin of one run, and the path to each pinned value."""
    pins = checks.PINS[workload]
    capture, keylog = checks.PINS[WORKLOADS[workload].family.name]["inputs"]
    counters = pins.get("counters", {}) if trace else {}
    last = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": "count"} for name, value in counters.items()}}
    report = {"provenance": {"capture_sha256": capture, "keylog_sha256": keylog}, "unmeasured": []}
    paths = [(last, "correct"), (last, "failed"), (report, "unmeasured"),
             (report["provenance"], "capture_sha256"), (report["provenance"], "keylog_sha256")]
    paths += [(last["metrics"], name) for name in counters]
    if not trace and "document" in pins:
        report["document_sha256"] = pins["document"]
        paths.append((report, "document_sha256"))
    return last, report, paths


@pytest.mark.parametrize("workload, trace", RUNS)
def test_check_run_names_each_pin_that_differs_or_is_missing(workload, trace):
    last, report, paths = _holding_run(workload, trace)
    checks.check_run(workload, trace, last, report)
    assert len(paths) >= 6  # correct, failed, unmeasured, both inputs, and a document or the counters
    for i in range(len(paths)):
        for wrong, shown in (("wrong", "'wrong'"), (None, "'<missing>'")):
            last, report, paths = _holding_run(workload, trace)
            holder, pin = paths[i]
            if wrong is None:
                del holder[pin]
            else:
                holder[pin] = {"value": wrong} if holder is last["metrics"] else wrong
            with pytest.raises(checks.Failed, match=f"^{re.escape(pin)}: got {shown}, want "):
                checks.check_run(workload, trace, last, report)
