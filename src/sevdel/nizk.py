"""Batched Chaum-Pedersen proof that aggregated ciphertexts open to the
stated aggregates.

For each sector j the prover knows R_j with

    P1''_j          = g1^R_j
    P1'_j * g1^-Q_j = V^R_j

that is, the pairs (P1''_j, P1'_j g1^-Q_j) share one discrete log under
(g1, V): P1'_j encrypts g1^Q_j under V with the randomness in P1''_j.
Q_j is stated in public and checked by the tag equation, so only R_j is
a witness; a proof of knowledge of Q_j would show nothing the verifier
cannot compute from the statement itself.

All s statements are folded into one with weights rho_j:

    X = prod_j P1''_j^rho_j,    Y = prod_j P1'_j^rho_j * g1^-(sum_j rho_j Q_j)

and a single DLEQ proves log_g1 X = log_V Y with one nonce k:
c = H(seed || g1^k || V^k), z = k + c * sum_j rho_j R_j, where the seed
is one digest of the statement (context, V, P2, every P1 pair, every
Q_j).  Write e_j = log_V(P1'_j g1^-Q_j) - log_g1 P1''_j.  The statement
holds iff every e_j is 0, and the folded pair passes iff sum_j rho_j e_j
is 0.  If some e_j is not 0, then for the other weights fixed at most one
value of rho_j mod the order makes the sum vanish, so with 128-bit
weights a false statement survives folding with probability at most
2^-128 on bn254 (the toy order is 48 bits and gives no security anyway).
That bound needs rho to be unpredictable when the statement is chosen,
so the weights are a hash of the whole statement: a prover that knew rho
first could offset P1''_1 by g1^rho_2 and P1''_2 by g1^-rho_1, and the
two errors would cancel in X.

X and Y are not hashed: the seed fixes the statement and the weights,
and they fix X and Y, so hashing the pair as well would bind nothing the
seed does not (strong Fiat-Shamir needs the statement under the hash,
Bernhard-Pereira-Warinschi, ASIACRYPT 2012).  Neither side
computes them: the prover needs only g1^k and V^k, and the verifier
expands g1^z X^-c and V^z Y^-c into one multi-exponentiation each.
"""

from __future__ import annotations

import hashlib

from .errors import MalformedProof
from .groups import G1Elem, SystemParams, scalar_to_bytes
from .rng import Rng, default_rng

WEIGHT_BITS = 128


def _digest(tag: bytes, parts: list[bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(tag)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


def _seed(
    context: bytes,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    p2: G1Elem,
    q: list[int],
) -> bytes:
    """One digest of the whole statement, from which the weights and the
    challenge are drawn."""
    parts = [context, v_pub.to_bytes(), p2.to_bytes()]
    for a, b in p1:
        parts.append(a.to_bytes())
        parts.append(b.to_bytes())
    parts.extend(scalar_to_bytes(v_pub.group, qj) for qj in q)
    return _digest(b"sevdel/dleq-statement:", parts)


def _weights(order: int, seed: bytes, s: int) -> list[int]:
    """s weights of WEIGHT_BITS bits, nonzero mod order, hashed from the
    statement's seed."""
    rho: list[int] = []
    counter = 0
    while len(rho) < s:
        block = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
        w = int.from_bytes(block[:WEIGHT_BITS // 8], "big")
        if w % order:
            rho.append(w)
    return rho


def _challenge(order: int, seed: bytes, t1: G1Elem, t2: G1Elem) -> int:
    parts = [seed, t1.to_bytes(), t2.to_bytes()]
    return int.from_bytes(_digest(b"sevdel/dleq-challenge:", parts), "big") % order


def prove_opening(
    params: SystemParams,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    p2: G1Elem,
    q: list[int],
    r_agg: list[int],
    context: bytes,
    rng: Rng | None = None,
) -> tuple[int, int]:
    """The (challenge, response) pair of the batched DLEQ for witnesses r_agg."""
    order = params.order
    seed = _seed(context, v_pub, p1, p2, q)
    rho = _weights(order, seed, len(q))
    k = default_rng(rng).scalar(order)
    c = _challenge(order, seed, params.g1 ** k, v_pub ** k)
    return c, (k + c * sum(r * rj for r, rj in zip(rho, r_agg))) % order


def verify_opening(
    params: SystemParams,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    p2: G1Elem,
    q: list[int],
    challenge: int,
    response: int,
    context: bytes,
) -> bool:
    """Recompute g1^z X^-c and V^z Y^-c and accept iff they hash to c."""
    if len(p1) != len(q):
        raise MalformedProof("proof arity mismatch")
    order = params.order
    if not (0 <= challenge < order and 0 <= response < order):
        raise MalformedProof("proof scalar out of range")
    seed = _seed(context, v_pub, p1, p2, q)
    rho = _weights(order, seed, len(q))
    neg = [-challenge * r % order for r in rho]
    shift = challenge * sum(r * qj for r, qj in zip(rho, q)) % order
    t1 = params.g1_msm([params.g1, *(b for _, b in p1)], [response, *neg])
    t2 = params.g1_msm([v_pub, *(a for a, _ in p1), params.g1], [response, *neg, shift])
    return _challenge(order, seed, t1, t2) == challenge
