"""The paper's listed data, hard-coded: independent oracles that only the tests read.

``reference_carriers`` gives, for each of the eight canonical types, generators of
the carrier subalgebra listed in the paper (``None`` where no carrier is listed).
"""

from hecke3.classify import TYPE_LABELS
from hecke3.cybe import matrix_unit
from hecke3.fields import QQ


def reference_carriers(field=QQ) -> dict:
    """The carrier subalgebras of the eight canonical types, as generators."""
    E = lambda i, j: matrix_unit(field, i, j)
    h = E(1, 1) + E(3, 3)
    return dict(zip(TYPE_LABELS, [
        None, None,
        [E(1, 1), E(1, 3), E(2, 1), E(2, 3), E(3, 1), E(3, 3)],
        [h, E(1, 3) - E(3, 1), E(2, 1), E(2, 3)],
        [h, E(2, 1), E(2, 3), E(3, 1)],
        [E(1, 3), E(3, 3)],
        [E(1, 3), E(2, 3)],
        [],
    ]))
