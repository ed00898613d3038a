#!/usr/bin/env python3
# Walk through the basic objects: weak orders, lotteries, and stochastic
# dominance. Everything is exact Fractions, no floats anywhere.

from fractions import Fraction

from sepax import (
    Lottery,
    WeakOrder,
    enumerate_weak_orders,
    fosd,
    fosd_oracle_utilities,
)

# a weak order is an ordered partition: "0,1>2" reads "0 and 1 tied on top,
# then 2"
order = WeakOrder.parse("0,1>2")
print("order:", order.text)
print("classes:", order.classes)
print("class of alternative 2:", order.class_of(2))
print("upper contour of 2:", sorted(order.upper_contour(2)))
print()

# how many weak orders are there?
for m in range(1, 7):
    print(f"m={m}: {len(enumerate_weak_orders(m))} weak orders")
print()

print("all of them at m=3:")
print("  " + "  ".join(o.text for o in enumerate_weak_orders(3)))
print()

# lotteries and dominance
R = WeakOrder.parse("0>1>2")
x = Lottery(3, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
y = Lottery(3, (Fraction(1, 2), Fraction(0), Fraction(1, 2)))
print("x =", x.texts(), " y =", y.texts(), " at", R.text)
print("prob x puts on {0,2}:", x.mass({0, 2}))
print("x dominates y:", fosd(x, y, R))
print("y dominates x:", fosd(y, x, R))

# the indicator-utility route is an independent derivation of the same
# relation; on any input the two must coincide
assert fosd(x, y, R) == fosd_oracle_utilities(x, y, R)
assert fosd(y, x, R) == fosd_oracle_utilities(y, x, R)
print("indicator-utility oracle agrees")
