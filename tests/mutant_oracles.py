"""The mutant predicate in name order: the test oracle of
``generate._fails_exactly_its_label``, which runs each ``bisieve`` check
on its sieve decoded alone before it loads a candidate, and the other
checks after, and must give the same answer.

Here every candidate is loaded whole first.  The labeled check runs
first, then the others in name order up to the first that does not
pass, so T1-T3 run before the ``bisieve`` checks.
"""

from bistack.errors import ToolkitError
from bistack.runner import run_check
from bistack.workspace import load_data


def fails_exactly_its_label_by_name(mutated):
    """Whether the labeled check is the only check of mutated that does
    not pass, its checks run in name order after the labeled one."""
    label = mutated["mutation"]["check"]
    try:
        doc = load_data(mutated)
        return run_check(doc, label)["verdict"] != "pass" and all(
            run_check(doc, name)["verdict"] == "pass"
            for name in sorted(doc.checks) if name != label)
    except ToolkitError:
        return False
