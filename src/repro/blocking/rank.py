"""Rank blocking and register blocking (Section V-B, Algorithm 2).

Rank blocking divides the factor matrices along the rank (columns) into
``N_RankB`` strips of ``BS_RankB = R / N_RankB`` columns; contributions to
each strip are computed independently, so blocking the rank makes *rows*
of the strip smaller and therefore more of them fit in cache.

Register blocking subdivides each strip's accumulator into groups of
:data:`REGISTER_BLOCK_COLS` columns that live entirely in registers,
eliminating the accumulator load/store instructions that pressure the load
units (the type-3 pressure point of Table I).  The paper uses
``N_RegB = 16`` doubles — one 128-byte POWER8 cache line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigError
from repro.util.validation import check_rank, require

#: Columns per register block: 16 doubles = 128 bytes = one POWER8 cache
#: line (the paper's ``NRegB = 16``).
REGISTER_BLOCK_COLS = 16


@dataclass(frozen=True)
class RankBlocking:
    """A rank-blocking configuration.

    Exactly one of ``n_blocks`` / ``block_cols`` may be given; the other is
    derived per rank at :meth:`strips` time.  With neither, the
    configuration is the identity (one strip covering all columns).

    ``register_block`` is the accumulator sub-block width in columns; it
    only affects the load-unit pressure model (register contents are not
    observable from NumPy), but :meth:`strips` validates strip widths
    against it the way the real kernel's unrolling would require.
    """

    n_blocks: int | None = None
    block_cols: int | None = None
    register_block: int = REGISTER_BLOCK_COLS
    #: Whether the factor strips are re-stacked into a tall contiguous
    #: matrix for sequential access (last paragraph of Section V-B); only
    #: the prefetch-efficiency term of the machine model reads this.
    restack: bool = True

    def __post_init__(self) -> None:
        if self.n_blocks is not None and self.block_cols is not None:
            raise ConfigError("give n_blocks or block_cols, not both")
        if self.n_blocks is not None:
            require(self.n_blocks >= 1, f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.block_cols is not None:
            require(
                self.block_cols >= 1,
                f"block_cols must be >= 1, got {self.block_cols}",
            )
        require(
            self.register_block >= 1,
            f"register_block must be >= 1, got {self.register_block}",
        )

    @property
    def is_identity(self) -> bool:
        """True when no rank blocking is configured (a single strip)."""
        return (self.n_blocks in (None, 1)) and self.block_cols is None

    def resolve_block_cols(self, rank: int) -> int:
        """Strip width in columns for a given rank ``R``."""
        rank = check_rank(rank)
        if self.block_cols is not None:
            return min(self.block_cols, rank)
        if self.n_blocks is None:
            return rank
        if self.n_blocks > rank:
            raise ConfigError(
                f"cannot split rank {rank} into {self.n_blocks} strips"
            )
        return -(-rank // self.n_blocks)  # ceil division

    def strips(self, rank: int) -> list[tuple[int, int]]:
        """Half-open column ranges of every strip for a given rank."""
        bs = self.resolve_block_cols(rank)
        return [(lo, min(lo + bs, rank)) for lo in range(0, rank, bs)]

    def n_strips(self, rank: int) -> int:
        """Number of strips for a given rank (the paper's ``N_RankB``)."""
        return len(self.strips(rank))

    def register_blocks(self, strip_cols: int) -> int:
        """Number of register blocks needed to cover one strip's columns.

        Each pass over a fiber handles one register block (Algorithm 2's
        unrolled ``reg0..reg15``), so fibers are re-read this many times —
        cheaply, given their short reuse distance (Section V-B).
        """
        require(strip_cols >= 1, "strip width must be >= 1")
        return -(-strip_cols // self.register_block)

    def describe(self, rank: int) -> str:
        """Human-readable summary for a given rank."""
        strips = self.strips(rank)
        return (
            f"RankBlocking: {len(strips)} strip(s) of <= "
            f"{self.resolve_block_cols(rank)} cols, register block "
            f"{self.register_block}"
        )


def resolve_rank_blocking(
    rank_blocking: "RankBlocking | None" = None,
    n_rank_blocks: "int | None" = None,
    block_cols: "int | None" = None,
) -> "RankBlocking | None":
    """The rank blocking from whichever spelling a caller used; ``None``
    when none is given."""
    given = sum(x is not None for x in (rank_blocking, n_rank_blocks, block_cols))
    if given > 1:
        raise ConfigError(
            "give exactly one of rank_blocking / n_rank_blocks / block_cols"
        )
    if n_rank_blocks is not None:
        return RankBlocking(n_blocks=int(n_rank_blocks))
    if block_cols is not None:
        return RankBlocking(block_cols=int(block_cols))
    return rank_blocking
