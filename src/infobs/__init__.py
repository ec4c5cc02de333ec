"""Decentralized supervisory control of discrete-event systems.

The package models a plant with a legal subautomaton, builds per-supervisor
observers and the epistemic frame over their composite, decides
controllability and the family of inference-observability conditions,
synthesizes knowledge-based supervisors whose decisions mirror the condition
line by line, and cross-checks everything with brute-force oracles at desk
scale.
"""

from .automata import (EquivalenceVerdict, PlantSpec, SupervisionProfile,
                       format_word, reachable, validate_model,
                       validate_profile)
from .conditions import (CONDITIONS, Condition, Counterexample, Verdict,
                         can_disable, can_enable, check, default_frame,
                         knowledge_lines, must_disable, must_enable)
from .errors import (ControlConflict, EnumerationBound, FormatError,
                     InfobsError, InstanceTooLarge, ModelError,
                     NotControllable, NotInferenceObservable, PolicyAmbiguity,
                     SynthesisError, UndefinedFusion)
from .explain import Explanation, explain
from .fusion import (ABSTAIN, DISABLE, ENABLE, OFF, ON, WOFF, WON,
                     ControlDecision, FusedDecision, fuse, fuse_legacy_pair)
from .kripke import (And, Const, Formula, Implies, Know, KripkeFrame, Not, Or,
                     Prop, Var, any_knows, build_frame, guard_transform,
                     legal, possible, STATE_LEGAL)
from .modelfile import (load_model, load_supervisors, parse_model,
                        save_supervisors, serialize_model)
from .observation import (Composite, Observer, World, build_composite,
                          compose, project)
from .oracle import (OracleVerdict, SearchResult, exhaustive_supervisor_search,
                     oracle_condition, oracle_solves)
from .synthesis import (PolicyCase, Supervisor, SynthesisResult, closed_loop,
                        kp_case, project_policy, synthesize,
                        verify_solution)

__version__ = "0.1.0"
