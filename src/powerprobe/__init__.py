"""powerprobe: recover hidden monic polynomials over F_p from e-th power oracles."""

from .ff_core import (BudgetExceededError, DomainError, PrimeFieldCtx,
                      factorize, find_primitive_root, iroot, is_prime)
from .poly_algebra import (BiPoly, DegenerateResultantError, Poly, RationalFn,
                           divisible_by_torsion, is_square_free,
                           lagrange_interpolate, perfect_power_decompose,
                           poly_gcd, poly_power_root, resultant_shifted,
                           square_free_decomposition, sylvester_resultant)
from .oracle import (CachingOracle, InstanceSpec, LocalPowerOracle, OracleError,
                     PowerOracle, ReplayOracle, TranscriptIncompleteError,
                     gen_instance, instance_from_json, instance_to_json,
                     make_oracle, read_instance, read_transcript,
                     replay_oracle_from_file, transcript_from_jsonl,
                     transcript_to_jsonl, write_instance, write_transcript)
from .algorithms import (AlgorithmError, AmbiguousCandidatesError, CandidateSet,
                         DishonestOracleError, IdentityVerdict,
                         InconsistentOracleError, InterpolationResult,
                         NoValidMError, RankLog, Step1Result, WindowEmptyError,
                         WindowParams, choose_m, compute_window, identity_test,
                         interpolate, naive_power_interpolate,
                         regime_condition_holds, step1_collect,
                         step2_candidates, step3_filter)
from .bounds_lab import (BoundReport, CSV_HEADER, EXPERIMENTS,
                         count_curve_points_on_subgroups,
                         count_curve_points_on_subgroups_alt,
                         count_interpolating_polynomials,
                         count_interpolating_polynomials_alt,
                         count_shifted_subgroup_intersection,
                         count_shifted_subgroup_intersection_alt,
                         count_value_set_in_subgroup,
                         count_value_set_in_subgroup_alt,
                         envelope_curve_points, envelope_interpolating_count,
                         envelope_shifted_intersection, envelope_value_set,
                         load_grid, shifted_condition_holds, sweep,
                         validate_grid, write_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
