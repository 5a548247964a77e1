"""Reference search for the automorphisms of an intersection form, kept
as a test oracle.

This is the original four-loop scan: every integer matrix with entries
in [-bound, bound] is tested for determinant +1 or -1 and for
transpose(M) Q M = Q.  It takes Theta(bound^4) steps, so the agreement
tests run it at small bounds only.
"""


def congruence_transform(m, q):
    (a, b), (c, d) = m
    (q00, q01), (q10, q11) = q
    # transpose(M) Q M, expanded
    r00 = a * (q00 * a + q01 * c) + c * (q10 * a + q11 * c)
    r01 = a * (q00 * b + q01 * d) + c * (q10 * b + q11 * d)
    r10 = b * (q00 * a + q01 * c) + d * (q10 * a + q11 * c)
    r11 = b * (q00 * b + q01 * d) + d * (q10 * b + q11 * d)
    return ((r00, r01), (r10, r11))


def reference_form_automorphisms(q, bound):
    rng = range(-bound, bound + 1)
    out = []
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c not in (1, -1):
                        continue
                    m = ((a, b), (c, d))
                    if congruence_transform(m, q) == q:
                        out.append(m)
    return tuple(sorted(out))
