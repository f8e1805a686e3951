"""Shared fixtures.

``backend`` runs a test on one VM leg, chosen by indirect
parametrization: ``"compiled"`` is the production VM
(:class:`repro.vm.interp.VM`), ``"interpreted"`` the generic reference
interpreter kept in ``tests/reference_vm.py``.  The leg applies to every
VM the package builds through ``make_vm`` while the test runs; the
fixture's value is the VM class in use.
"""

import pytest

from repro.vm.interp import VM
from tests.reference_vm import reference_vms


@pytest.fixture
def backend(request):
    if request.param == "interpreted":
        with reference_vms() as cls:
            yield cls
    else:
        yield VM
