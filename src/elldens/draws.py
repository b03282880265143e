"""Seeded uniform draws of F_p slot vectors, the one rule from a seed to a
datum's slots: seed s gives ``cols`` values on 0..p-1, in the smallest
dtype holding p - 1, from the PCG64 stream of NumPy's ``PCG64(s)`` (seeded
by ``SeedSequence(s)``), by Lemire's bounded rule (*Fast random integer
generation in an interval*, ACM TOMACS 29(1), 2019): a little-endian word
u of the dtype's w bits gives (u p) >> w, unless the low w bits of u p fall
below 2^w mod p and u is skipped.  These are the values of
``Generator(PCG64(s)).integers(0, p, cols, dtype)``, as the tests pin, but
rest only on the raw stream and SeedSequence, which NumPy's RNG policy
(NEP 19) keeps fixed for a seed.  Seeds lie in [0, 2^64); p > 2^32
(64-bit words) is refused.

Monte-Carlo sample i of master seed S has seed ``sample_seed(S, i)``, so a
sample replays alone through ``scan --random``.  The bounded rule runs on
blocks of rows whose temporaries stay within ``_ROW_BUDGET`` bytes.
"""
from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .base import _ROW_BUDGET
from .errors import FeasibilityError


def sample_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-sample seed derived from (master_seed, index)."""
    h = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def slot_rows(p: int, cols: int, seeds, out: np.ndarray | None = None) -> np.ndarray:
    """Row j is the draw of `cols` slots over F_p for seed ``seeds[j]`` in
    [0, 2^64), in `out` if given, else in a new array of the smallest dtype
    holding p - 1."""
    dtype = np.min_scalar_type(p - 1)
    if dtype.itemsize > 4:
        raise FeasibilityError(f"slot draws need p <= 2^32, got p={p}")
    lo, hi = min(seeds, default=0), max(seeds, default=0)
    if lo < 0 or hi >= 1 << 64:
        raise ValueError(f"slot draws need seeds in [0, 2^64), got {lo}..{hi}")
    if out is None:
        out = np.empty((len(seeds), cols), dtype=dtype)
    if len(seeds) == 1:  # NumPy's own SeedSequence, ~9 us against the array hash's ~118 us
        bg = np.random.PCG64(int(seeds[0]))
        start = bg.state["state"]
        starts = [(start["state"], start["inc"])]
    else:
        bg, starts = np.random.PCG64(0), _pcg64_states(_seed_words(seeds))
    _bounded_rows(bg, starts, p, dtype, _slot_word_budget(cols, p, 8 * dtype.itemsize), out)
    return out


# SeedSequence's hash (a pool of four uint32 words) and PCG64 seeding for many
# seeds at once; the hash constants run a fixed sequence, so each step's (xor,
# multiplier) is tabulated: 4 pool fills, 12 cross mixes, then 8 output words.
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[np.uint32, np.uint32], ...]:
    run = itertools.accumulate(range(n), lambda c, _: c * mult & 0xFFFFFFFF, initial=init)
    return tuple((np.uint32(a), np.uint32(b)) for a, b in itertools.pairwise(run))


_SS_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_SS_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, consts) -> np.ndarray:
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> 16)


def _seed_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    seed s in [0, 2^64), as the columns of a (4, len(seeds)) uint64 array."""
    s = np.asarray(seeds, dtype=np.uint64)
    # the entropy words, little-endian, zero-padded to the pool size
    pool = np.zeros((4, len(s)), dtype=np.uint32)
    pool[0] = s & 0xFFFFFFFF
    pool[1] = s >> 32
    consts = iter(_SS_POOL_CONSTS)
    for i in range(4):
        pool[i] = _hashmix(pool[i], next(consts))
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * _hashmix(pool[src], next(consts))
                pool[dst] = mixed ^ (mixed >> 16)
    state = np.stack([_hashmix(pool[i % 4], c) for i, c in enumerate(_SS_STATE_CONSTS)])
    # uint32 words pair into uint64 words little-endian
    return state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)


def _pcg64_states(seed_words: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) ``np.random.PCG64(s)`` starts from, for every column
    (s0, s1, i0, i1) of :func:`_seed_words`: inc = 2 (i0 i1) + 1 and state
    ((s0 s1) + inc) M + inc mod 2^128."""
    states = []
    for s0, s1, i0, i1 in zip(*seed_words.tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        states.append((((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _slot_word_budget(cols: int, p: int, width: int) -> int:
    """Words of `width` bits drawn per row at first: enough for `cols`
    accepted values but for a rare short row, which draws again."""
    reject = ((1 << width) % p) / (1 << width)
    if not reject:
        return cols
    extra = cols * reject / (1 - reject)
    return cols + math.ceil(extra + 6 * math.sqrt(extra) + 8)


def _bounded_rows(bg: np.random.PCG64, starts: list[tuple[int, int]], p: int,
                  dtype: np.dtype, nwords: int, out: np.ndarray) -> None:
    """Fill row j of `out` with the bounded rule's values in `dtype` on the
    PCG64 stream that starts at ``starts[j]`` (state, inc), `bg` set to each
    start in turn, `nwords` words at first; a row short of values draws its
    stream again, twice as long."""
    cols = out.shape[1]
    size = dtype.itemsize
    width = 8 * size
    threshold = (1 << width) % p
    nraw = -(-nwords // (8 // size))
    wide = np.dtype(f"u{2 * size}")
    # temporaries per raw byte of a row: the words' products, low words,
    # acceptance masks, int32 ranks and kept values (under 8 + 12 / size),
    # or the shifted copy alone when p divides 2^w
    step = max(1, _ROW_BUDGET // (nraw * 8 * (8 + 12 // size if threshold else 3)))
    start = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": start, "has_uint32": 0, "uinteger": 0}
    short = []
    for lo in range(0, len(starts), step):
        group = starts[lo:lo + step]
        raw = np.empty((len(group), nraw), dtype=np.uint64)
        for row, (state, inc) in zip(raw, group):
            start["state"], start["inc"] = state, inc
            bg.state = full_state
            row[:] = bg.random_raw(nraw)
        drawn = raw.astype("<u8", copy=False).view(f"<u{size}")
        if not threshold:
            # p = 2^j divides 2^w: every word is accepted, (u p) >> w = u >> (w - j)
            if drawn.shape[1] >= cols:
                out[lo:lo + len(group)] = drawn[:, :cols] >> (width + 1 - p.bit_length())
            else:
                short.extend(range(lo, lo + len(group)))
            continue
        prod = drawn.astype(wide)
        prod *= wide.type(p)
        accept = prod.astype(dtype) >= threshold
        prod >>= width
        if len(group) == 1:  # a datum's draw keeps its first `cols` accepted values, no ranks
            kept = prod[accept][:cols]
            out[lo, :len(kept)] = kept
            if len(kept) < cols:
                short.append(lo)
            continue
        rank = np.cumsum(accept, axis=1, dtype=np.int32)
        ok = rank[:, -1] >= cols
        accept &= rank <= cols
        if ok.all():
            out[lo:lo + len(group)] = prod[accept].reshape(len(group), cols)
            continue
        if ok.any():
            out[lo + np.flatnonzero(ok)] = prod[ok][accept[ok]].reshape(-1, cols)
        short.extend((lo + np.flatnonzero(~ok)).tolist())
    if short:
        redo = np.empty((len(short), cols), dtype=out.dtype)
        _bounded_rows(bg, [starts[i] for i in short], p, dtype, 2 * nraw * (8 // size), redo)
        out[short] = redo
