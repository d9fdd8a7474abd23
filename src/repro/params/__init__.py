"""CKKS parameter definitions, security constraints, and paper presets."""

from repro.params.ckks import CkksParams
from repro.params.security import (
    SECURITY_128_MAX_LOG_QP,
    max_log_qp_for_128_bit_security,
    satisfies_128_bit_security,
)
from repro.params.presets import (
    BASELINE_JUNG,
    MAD_OPTIMAL,
    PARAM_SETS,
    toy_params,
)

__all__ = [
    "CkksParams",
    "SECURITY_128_MAX_LOG_QP",
    "max_log_qp_for_128_bit_security",
    "satisfies_128_bit_security",
    "BASELINE_JUNG",
    "MAD_OPTIMAL",
    "PARAM_SETS",
    "toy_params",
]
