"""Expressions over phase-space coordinates: parsing, evaluation, exact
derivatives, and the value with its gradient."""

from binoether import PhaseSpace, diff, evaluate, evaluate_jet, parse

space = PhaseSpace.canonical(1)  # coordinates (q1, p1)
print("phase space:", space.names)

# the generator component of the friction model
e = parse("(p1 + q1)^2", space)
print("\nexpression:     ", e)
print("value at (1,2): ", evaluate(e, (1.0, 2.0)))  # (2+1)^2 = 9

# exact symbolic partial derivatives
for name in space.names:
    d = diff(e, name, space)
    print(f"d/d{name}:          {d}   -> at (1,2): {evaluate(d, (1.0, 2.0))}")

# the value and the full gradient together, from eval and the derivatives
jet = evaluate_jet(e, (1.0, 2.0))
print("\njet value:      ", jet.value)
print("jet gradient:   ", jet.gradient, " (order q1, p1)")

# printing round-trips through the grammar
printed = str(e)
reparsed = parse(printed, space)
print("\nround trip:     ", printed)
print("same value:     ", evaluate(reparsed, (1.0, 2.0)) == evaluate(e, (1.0, 2.0)))

# domain violations carry the offending subexpression
bad = parse("1 / q1 + ln(p1)", space)
try:
    evaluate(bad, (0.0, 1.0))
except Exception as err:
    print("\ndomain error:   ", err)
