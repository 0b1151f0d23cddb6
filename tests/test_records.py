"""The record classes: their field lists, their equality, and an import of
the command line that loads neither `dataclasses` nor `inspect`."""

import inspect
import os
import subprocess
import sys

import pytest

from edrsim.cache import CacheGeometry, ReconfigReport
from edrsim.config import RunConfig
from edrsim.controller import Candidate, ControllerConfig, Decision
from edrsim.energy import EnergyBreakdown, EnergyParams
from edrsim.profiler import IntervalStats, TimingParams
from edrsim.record import Record
from edrsim.refresh import RefreshConfig
from edrsim.sim import ComparisonReport, ComparisonRow, RunReport, SchemeSpec
from edrsim.trace import PhaseSpec, SyntheticTraceSpec, TraceArrays, TraceHeader

RECORDS = [CacheGeometry, ReconfigReport, RefreshConfig, EnergyParams,
           EnergyBreakdown, TimingParams, IntervalStats, ControllerConfig,
           Candidate, Decision, TraceHeader, TraceArrays, PhaseSpec,
           SyntheticTraceSpec, SchemeSpec, RunReport, ComparisonRow,
           ComparisonReport, RunConfig]

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # importing them costs every command about 10 ms of set-up, and
    # nothing in edrsim needs them; nor argparse, whose first parser
    # imports gettext and locale and took 2-4 ms of every command
    code = ("import sys, edrsim.cli; print(sorted({'dataclasses', 'inspect', "
            "'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "[]\n"


def test_every_record_class_is_listed():
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_the_init_parameters_in_order(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == list(cls._fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    # each annotated with its type, which converts a config key's text
    assert list(cls.__init__.__annotations__) == list(cls._fields)


def test_records_compare_and_hash_by_their_fields():
    a, b = CacheGeometry(2 << 20, 8), CacheGeometry(2 << 20, 8)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != CacheGeometry(4 << 20, 8)
    assert {RefreshConfig(2000, 4), RefreshConfig(2000, 4)} == {
        RefreshConfig(2000, 4)}
    # records of two classes are never equal
    assert ReconfigReport(1, 2, 3) != RefreshConfig(1, 1)
    assert Candidate(4, 1.0, -0.0, 2.0, False) == \
        Candidate(4, 1.0, 0.0, 2.0, False)
    assert repr(Candidate(4, 1.0, -0.0, 2.0, False)) == (
        "Candidate(colors=4, est_time_cycles=1.0, delta_pct=-0.0, "
        "est_energy_j=2.0, rejected_by_beta=False)")
    with pytest.raises(TypeError):
        hash(IntervalStats())
