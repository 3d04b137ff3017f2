#!/usr/bin/env python3
"""Walk through the toolkit on a handful of reference inputs.

Prints classification, generalized inverses, equation solutions,
similarity and consimilarity verdicts with their witnesses, canonical
forms, and roots, each followed by the substitution check that proves
the answer.
"""

import warnings

from splitquat import (
    ONE,
    ZERO,
    canonical_form,
    is_consimilar,
    is_similar,
    mp_inverse,
    nth_roots,
    parse_quat,
    power,
    s_matrix,
    solve_axb,
    solve_xa_bx,
    solve_xa_bxbar,
    t_matrix,
)


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    banner("Classification and invariants")
    for text in ("1+3i+2j+k", "1+2i+3j+4k", "i+j", "1+j"):
        q = parse_quat(text)
        print(
            f"{text:_<14} class={q.classify().value:_<10} "
            f"I={q.quadratic_form} K={q.im_squared}"
        )

    banner("Moore-Penrose inverses")
    for text in ("2", "1+j", "1+i+j+k", "0"):
        a = parse_quat(text)
        p = mp_inverse(a)
        print(f"pinv({text}) = {p}   [a p a = a: {(a * p * a) == a}]")

    banner("Two-sided equation a x b = d")
    a = b = parse_quat("1+j")
    for d_text in ("1+j", "1-j"):
        d = parse_quat(d_text)
        outcome = solve_axb(a, b, d)
        if outcome.solvable:
            x0 = outcome.family.at(ZERO)
            print(f"d={d_text}: solvable, x(0)={x0}, dimension {outcome.family.dimension}")
        else:
            print(f"d={d_text}: unsolvable, certificate {outcome.certificate}")

    banner("Similarity with witness")
    pairs = [("1+5i+3j+4k", "1+13i+12j+5k"), ("1+5i+5j+2k", "2+i+j+3k"), ("i", "j")]
    for a_text, b_text in pairs:
        a, b = parse_quat(a_text), parse_quat(b_text)
        verdict = is_similar(a, b)
        family = solve_xa_bx(a, b)
        line = f"{a_text} ~ {b_text}? {bool(verdict)}; solution dim {family.dimension}"
        if verdict:
            w = verdict.witness
            line += f"; witness {w} (check {w * a == b * w})"
        print(line)
        print(f"    kernel rank check: dim == 4 - rank(T) == {4 - t_matrix(a, b).rank()}")

    banner("Canonical forms")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text in ("1+5i+3j+4k", "1+3i+2j+k", "2+i+2j+2k"):
            a = parse_quat(text)
            form = canonical_form(a)
            p, target = form.conjugator, form.target
            print(
                f"{text} -> {target}   conjugator {p}   exact={form.exact}"
                f" (check {(p * a).isclose(target * p)})"
            )

    banner("Consimilarity")
    a = parse_quat("1+2i+3j+4k")
    for b_text in ("-1+2i+3j+4k", "2+i+3j+4k", "-2+i+4j+3k", "2+i+3k"):
        b = parse_quat(b_text)
        verdict = is_consimilar(a, b)
        extra = f", witness {verdict.witness}" if verdict else ""
        print(f"{a} ~c {b_text}? {bool(verdict)}{extra}")

    banner("Solutions of x a = b conj(x): the kernel of S")
    for a_text, b_text in (("1+2i+3j+4k", "2+i+3j+4k"), ("1+2i+3j+4k", "-1+2i+3j+4k"),
                           ("3i+3k", "-2i-2k")):
        a, b = parse_quat(a_text), parse_quat(b_text)
        family = solve_xa_bxbar(a, b)
        basis = ", ".join(str(v) for v in family.basis())
        rank_check = family.dimension == 4 - s_matrix(a, b).rank()
        print(f"a={a_text}, b={b_text}: dim {family.dimension}, basis {basis}"
              f"   [dim == 4 - rank(S): {rank_check}]")

    banner("Roots of zero divisors")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text, n in (("1+j", 2), ("-1+j", 3), ("i+j", 2)):
            q = parse_quat(text)
            ws = nth_roots(q, n)
            if not ws:
                print(f"{text} has no {n}th roots")
            for w in ws:
                print(f"{text}: w={w}, w^{n}={power(w, n)}")
    print()
    print(f"power(1+j, 3) = {power(parse_quat('1+j'), 3)}  (closed form on zero divisors)")


if __name__ == "__main__":
    main()
