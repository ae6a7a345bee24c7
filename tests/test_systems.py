import numpy as np

from frontshift.geometry import check_positive_definite
from frontshift.systems import BUNDLED, DICHOTOMY


def test_every_bundled_system_builds():
    for name, spec in BUNDLED.items():
        man, force = spec.build()
        assert man.dimension == spec.dimension
        box = np.asarray(spec.x_box, dtype=float)
        # positive definite across the probe box, corners and center
        corners = np.stack([box[:, 0], box[:, 1], box.mean(axis=1)])
        for x, g in zip(corners, man.metric(corners)):
            check_positive_definite(x, g)
            ginv = np.linalg.inv(g)
            assert np.abs(g @ ginv - np.eye(man.dimension)).max() < 1e-12
        v = np.full(man.dimension, 0.7)
        vals = force.components(box.mean(axis=1)[None, :], v[None, :])
        assert np.isfinite(vals).all()


def test_dichotomy_names_resolve():
    assert len(DICHOTOMY) == 5
    for name in DICHOTOMY:
        assert BUNDLED[name].name == name
