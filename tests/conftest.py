import numpy as np
import pytest

from bklab.harness import build_model, build_oracle, config_from_dict


def make_config(innovation="gaussian", coefficients=None, rho=0.45,
                gamma1=None, gamma2=None, n_grid=(64,), replicates=2,
                master_seed=7, interval=(0.05, 0.95), nu=None,
                oracle=None, extra=None):
    d = {
        "version": 1,
        "model": {
            "innovation": ({"name": innovation} if isinstance(innovation, str)
                           else dict(innovation)),
            "coefficients": coefficients or {"kind": "finite", "values": [1.0]},
            "rho": rho,
        },
        "scan": {
            "n_grid": list(n_grid),
            "replicates": replicates,
            "master_seed": master_seed,
            "interval": list(interval),
            "nu": nu,
        },
    }
    if gamma1 is not None:
        d["model"]["gamma1"] = gamma1
    if gamma2 is not None:
        d["model"]["gamma2"] = gamma2
    if oracle is not None:
        d["oracle"] = oracle
    if extra:
        d.update(extra)
    return d


@pytest.fixture(scope="session")
def iid_uniform():
    cfg = config_from_dict(make_config(innovation="uniform", rho=0.3))
    model = build_model(cfg)
    return model, build_oracle(model, cfg)


@pytest.fixture(scope="session")
def ma1_gaussian():
    cfg = config_from_dict(make_config(
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        gamma1=1.0, gamma2=1.0))
    model = build_model(cfg)
    return model, build_oracle(model, cfg)


@pytest.fixture(scope="session")
def powerlaw_gaussian():
    cfg = config_from_dict(make_config(
        coefficients={"kind": "power_law", "tau": 3.0},
        rho=0.45, gamma1=1.0, gamma2=1.0))
    model = build_model(cfg)
    return model, build_oracle(model, cfg)


@pytest.fixture(scope="session")
def iid_gaussian():
    cfg = config_from_dict(make_config(gamma1=1.0, gamma2=1.0, rho=0.3))
    model = build_model(cfg)
    return model, build_oracle(model, cfg)
