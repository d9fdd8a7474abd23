"""ExactArithPurity: the modular-arithmetic paths stay float-free.

``numth/`` and ``ring/`` implement exact RNS arithmetic — NTTs over
prime fields, CRT reconstruction, basis conversion.  The trace-parity
tests assert traced and untraced runs are *bit-identical*; one float
sneaking into these paths (a ``/`` instead of ``//`` or
``mod_inverse``, a ``math.log2``, a numpy float dtype) turns exact
integer results into approximations and breaks that guarantee silently
on large operands (floats lose integer precision past 2**53).

Flagged inside ``numth/`` and ``ring/`` only:

* true division ``/`` (including ``/=``);
* ``float``/``complex`` literals and the ``float()``/``complex()``
  builtins;
* ``math.*`` attributes outside the exact integer subset
  (``gcd``, ``isqrt``, ``lcm``, ``comb``, ``perm``, ``factorial``,
  ``prod``);
* any ``numpy`` import (its integer dtypes overflow silently and its
  default dtypes are floats).

``kernels/`` is held to the same float-free standard — its int64/uint64
residue arrays must stay bit-identical to the oracle — except for the
numpy-import check, which is waived there because vectorizing over numpy
is the package's entire purpose (overflow safety is carried by the
``q < 2**30`` headroom argument in its module docstrings and enforced by
the differential tests).  ``ring/`` gets the same waiver: its limbs are
one int64 matrix per element below that bound and a Python-int
``object`` matrix above it.  ``numth/`` stays numpy-free — it is the
pure-Python oracle.

One file is exempt by name: ``kernels/fourstep.py``
(:data:`~repro.lint.scopes.FLOAT_KERNEL_FILE`), the NTT as exact
float64 matrix products.  BLAS has no exact integer product, and its
float64 one is exact when every partial sum is an integer below
``2**53``, which that module's docstring proves for every table and
every modulus below ``2**30`` and its worst-case tests pin.  Keeping all
float code in that one module, with the proof beside it, keeps the rest
of ``kernels/`` checkable; no other kernel file gets the exemption, and
it is granted here rather than by suppression comments.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register
from repro.lint.scopes import (
    EXACT_DIRS,
    FLOAT_KERNEL_FILE,
    KERNEL_DIRS,
    NUMPY_EXACT_DIRS,
)

__all__ = ["ExactArithPurity"]

#: math functions that are exact on integers.
EXACT_MATH = frozenset(
    {"gcd", "isqrt", "lcm", "comb", "perm", "factorial", "prod"}
)
_FLOAT_BUILTINS = frozenset({"float", "complex"})


@register
class ExactArithPurity(Rule):
    name = "ExactArithPurity"
    description = (
        "numth/, ring/ and kernels/ (except kernels/fourstep.py) are exact "
        "integer paths: no `/`, float/complex literals, float() builtins or "
        "non-exact math.*; numpy imports are additionally banned in numth/"
    )
    node_types = (
        ast.BinOp,
        ast.AugAssign,
        ast.Constant,
        ast.Call,
        ast.Attribute,
        ast.Import,
        ast.ImportFrom,
    )

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        if not ctx.in_dir(*KERNEL_DIRS, *EXACT_DIRS) or ctx.is_file(
            FLOAT_KERNEL_FILE
        ):
            return None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            return [
                self.finding(
                    ctx,
                    node,
                    "true division `/` in an exact modular-arithmetic path — "
                    "use `//` or repro.numth.modular.mod_inverse",
                )
            ]
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (float, complex)
        ):
            return [
                self.finding(
                    ctx,
                    node,
                    f"{type(node.value).__name__} literal {node.value!r} in an "
                    "exact modular-arithmetic path — floats lose integer "
                    "precision past 2**53",
                )
            ]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FLOAT_BUILTINS
        ):
            return [
                self.finding(
                    ctx,
                    node,
                    f"`{node.func.id}()` conversion in an exact "
                    "modular-arithmetic path",
                )
            ]
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            return [
                self.finding(
                    ctx,
                    node,
                    f"`math.{node.attr}` is not exact on integers; only "
                    f"{', '.join(sorted(EXACT_MATH))} are allowed here",
                )
            ]
        if ctx.in_dir(*NUMPY_EXACT_DIRS):
            # kernels/ and ring/ vectorize over exact numpy dtypes; the
            # import checks below do not apply there.
            return None
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    return [
                        self.finding(
                            ctx,
                            node,
                            "numpy import in an exact modular-arithmetic path "
                            "— its dtypes are floats or silently-overflowing "
                            "fixed-width ints",
                        )
                    ]
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[
            0
        ] == "numpy":
            return [
                self.finding(
                    ctx,
                    node,
                    "numpy import in an exact modular-arithmetic path — its "
                    "dtypes are floats or silently-overflowing fixed-width "
                    "ints",
                )
            ]
        return None
