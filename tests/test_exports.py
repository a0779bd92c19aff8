import roughassim
from roughassim import errors

from test_doors import DOORS, EXEMPT


def test_all_names_resolve_once():
    names = roughassim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(roughassim, name)]
    assert missing == []


def test_every_exported_callable_is_a_probed_door_or_exempt():
    exported = {name for name in roughassim.__all__ if callable(getattr(roughassim, name))}
    probed = {door.fn for door in DOORS}
    unprobed = {name for name in exported if getattr(roughassim, name) not in probed}
    assert unprobed - set(EXEMPT) == set()
    # An exemption names an exported callable that the table leaves out.
    assert set(EXEMPT) - unprobed == set()
    assert all(reason for reason in EXEMPT.values())


def test_errors_are_one_class_per_exit_code():
    # InvalidSpecError exits 3; BlowUpError and NoConvergenceError exit 2.
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined == {"RoughAssimError", "InvalidSpecError", "BlowUpError",
                       "NoConvergenceError"}
    removed = {"InvalidParameterError", "GridMismatchError", "UnsupportedCostError"}
    assert removed.isdisjoint(roughassim.__all__)
