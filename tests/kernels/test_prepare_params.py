"""Every kernel's ``prepare`` must reject parameters it does not
understand — a typo'd ``block_count`` fails loudly instead of silently
preparing an unblocked plan — while still accepting its own knobs."""

from __future__ import annotations

import pytest

from repro.kernels import KERNELS, get_kernel
from repro.util.errors import ConfigError

#: One valid non-default parameterization per kernel.
VALID_PARAMS: dict[str, dict[str, object]] = {
    "coo": {},
    "splatt": {},
    "csf": {"mode_order": (0, 1, 2)},
    "csf-any": {"mode_order": (2, 1, 0)},
    "mb": {"block_counts": (2, 2, 2)},
    "rankb": {"n_rank_blocks": 2},
    "mb+rankb": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
    "csf-blocked": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
}


def test_valid_params_cover_registry() -> None:
    assert set(VALID_PARAMS) == set(KERNELS)


@pytest.mark.parametrize("kernel_name", sorted(VALID_PARAMS))
def test_unknown_param_rejected(kernel_name, small_tensor) -> None:
    kern = get_kernel(kernel_name)
    with pytest.raises(ConfigError) as excinfo:
        kern.prepare(small_tensor, 0, block_count=7)  # typo'd knob
    message = str(excinfo.value)
    assert "block_count" in message
    assert kernel_name in message
    # The error teaches the fix: it lists what the kernel does accept.
    assert "accepted" in message


@pytest.mark.parametrize("kernel_name", sorted(VALID_PARAMS))
def test_own_params_still_accepted(kernel_name, small_tensor) -> None:
    kern = get_kernel(kernel_name)
    plan = kern.prepare(small_tensor, 0, **VALID_PARAMS[kernel_name])
    assert plan.mode == 0


@pytest.mark.parametrize("kernel_name", sorted(VALID_PARAMS))
def test_unknown_backend_rejected(kernel_name, small_tensor) -> None:
    """Kernels have a single execute body; ``backend=`` is not a knob."""
    kern = get_kernel(kernel_name)
    with pytest.raises(ConfigError, match="unknown prepare parameter.*backend"):
        kern.prepare(
            small_tensor, 0, backend="numpy", **VALID_PARAMS[kernel_name]
        )


def test_foreign_kernels_knob_rejected(small_tensor) -> None:
    """coo/splatt take no layout knobs at all — another kernel's valid
    parameter is still unknown to them."""
    for kernel_name in ("coo", "splatt"):
        with pytest.raises(ConfigError, match="unknown prepare parameter"):
            get_kernel(kernel_name).prepare(
                small_tensor, 0, block_counts=(2, 2, 2)
            )


@pytest.mark.parametrize("kernel_name", ["mb", "mb+rankb"])
def test_inner_mode_is_not_a_knob(kernel_name, small_tensor) -> None:
    """The SPLATT presets fix their orientation; ``mode_order`` is the one
    spelling of a tree's orientation, and only the csf presets take it."""
    with pytest.raises(ConfigError, match="unknown prepare parameter.*inner_mode"):
        get_kernel(kernel_name).prepare(
            small_tensor, 0, inner_mode=2, **VALID_PARAMS[kernel_name]
        )
