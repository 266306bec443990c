"""Walk through the whole construction at desk scale, printing every
intermediate object: field, progression-free set, zero-sum family,
generator matrix, and the verification report, audited exhaustively by the
lookup kernel."""

from mrcodes import (build_code, build_family, choose_params, make_field,
                     exhaustive_best, verify_mr)

r, q = 2, 101
field = make_field(q)
print(f"field: GF({q}), N={field.N}, primitive element gamma={field.gamma}")

params = choose_params(r, q)
print(f"params: lambda={params.lam}, delta={params.delta}, l={params.l}, d={params.d}")

D = exhaustive_best(params.d, r)
print(f"progression-free set D = {D.elements} (method={D.method})")

family = build_family(params, D)
print(f"blocks D_0..D_{r}: {family.blocks}")
print(f"transversals: {family.transversals}")
for tr in family.transversals:
    print(f"  sum({tr}) = {sum(tr)} = 0 mod {params.N}")

code = build_code(field, family)
print(f"\ncode: n={code.n}, k={code.k}, r={code.r}, h={code.h}")
print("generator matrix G (rows x columns):")
for row in code.G:
    print("  ", [e.value for e in row])

report = verify_mr(code, mode="exhaustive")
print(f"\nverification ({report.mode}): {report.mds_subsets_checked} subsets scanned")
print(f"rank-deficient subsets (must be exactly the repair groups): "
      f"{report.deficient_subsets}")
print(f"repair groups:                                              "
      f"{list(code.repair_groups)}")
print(f"in-group distance check ok: {report.local_distance_ok}")
print(f"overall: {'PASS' if report.ok else 'FAIL'}")
# a column subset is rank-deficient exactly when its exponents sum to 0 mod N
assert report.ok and sorted(report.deficient_subsets) == sorted(code.repair_groups)
print(f"zero-sum characterization holds ({report.mode}): the zero-sum subsets "
      f"are exactly the transversals")
