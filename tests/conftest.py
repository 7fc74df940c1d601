import os
import sys

import pytest

from mapfibers.ideals import Ideal
from mapfibers.mapfile import load_map_file
from mapfibers.pipeline import PipelineOptions, run_pipeline

MAPS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "maps")


def map_path(name: str) -> str:
    return os.path.join(MAPS_DIR, name)


def rebind(monkeypatch, fn, wrapper):
    """Rebind fn to wrapper in every mapfibers module that holds it."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "mapfibers":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)


def count_calls(monkeypatch, fn, key=lambda *args: None):
    """Rebind fn in every mapfibers module that holds it to a wrapper that
    logs key(*args) per call; returns the log."""
    log = []

    def counted(*args, **kwargs):
        log.append(key(*args))
        return fn(*args, **kwargs)

    rebind(monkeypatch, fn, counted)
    return log


@pytest.fixture
def int_digit_limit():
    """The interpreter's default int/str conversion limit, 4300 digits
    (Python 3.10.7 and later), pinned for the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def quintic_map():
    return load_map_file(map_path("quintic_surface.map"))


@pytest.fixture(scope="session")
def quintic_ideal(quintic_map):
    return Ideal(quintic_map.source, list(quintic_map.forms))


@pytest.fixture(scope="session")
def quintic_result(quintic_map):
    """One full pipeline run shared by everything that inspects the example."""
    return run_pipeline(quintic_map, PipelineOptions(s_max=4),
                        path="maps/quintic_surface.map")


@pytest.fixture(scope="session")
def bpf_map():
    return load_map_file(map_path("base_point_free.map"))


@pytest.fixture(scope="session")
def ngf_map():
    return load_map_file(map_path("non_generically_finite.map"))
