"""Predictive data-race detection over logged concurrency traces.

Two linear-time streaming detectors over one trace model: a WCP engine
(sound race prediction beyond happens-before) and an HB baseline, plus a
brute-force relation oracle for small traces and trace generators for
fixtures, random corpora and the bit-equality gadget family.
"""

from .hb_engine import HbEngine, ValidationReport, validate
from .oracle import (BoundExceeded, OrderRelation, cp_prec_closure, hb_closure,
                     races_of, wcp_le, wcp_prec_closure)
from .race_reporter import (AccessClocks, Flag, RacePair, check_access,
                            resolve_pairs, run_detector)
from .trace_model import (ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Event,
                          ParseError, Trace, load_trace, parse_trace)
from .tracegen import (FIXTURE_NAMES, GenParams, fixture, gen_equality_trace,
                       gen_random, iter_scaling)
from .wcp_engine import EngineError, WcpEngine

__version__ = "0.1.0"
