"""The two-sorted language and the shipped formula corpus."""

from relcheck.corpus import SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL, load_axioms, load_definitions
from relcheck.fol import atoms_used, expand_defined, parse_formula, render_formula

table = load_definitions()
print(f"{len(table.definitions)} defined predicates:")
print("  " + ", ".join(list(table.definitions)[:10]) + ", ...")

f = parse_formula("forall a:Ob. exists s:Si. (T(a,s) & !Ev(s))", table.signatures())
print("\nparsed:", render_formula(f))

ev = table["Ev"]
print("\nEv's definition:", render_formula(ev.body))

# macro expansion is capture avoiding and bottoms out in T, R, =
bw = parse_formula("Bw(a,b,c)", table.signatures(), {"a": "Ob", "b": "Ob", "c": "Ob"})
flat = expand_defined(bw, table)
print("\nBw fully expanded uses only:", sorted(atoms_used(flat)))
print("size of the expansion:", len(render_formula(flat)), "characters")

for system in (SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL):
    axioms = load_axioms(system, table=table)
    print(f"\n{system}: {len(axioms)} axiom files, e.g.")
    for ax in axioms[17:20]:
        print(f"  {ax.name}: {render_formula(ax.formula)[:90]}...")
