"""Discrete interval exchanges and their Lyndon-multiset correspondence.

Run from the repository root after `pip install -e .`:

    python demos/discrete_exchange.py
"""

from ietkit import (
    Diet,
    OrderedAlphabet,
    Permutation,
    as_iet,
    diet_action,
    diet_cylinder,
    diet_from_multiset,
    orbit_words,
)

abc = OrderedAlphabet("abc")

# Composition (4, 2, 1) of 7 with the order-reversing permutation: the first
# four points form block a, the next two block b, the last one block c,
# and the blocks are rearranged in the order c, b, a.
diet = Diet([4, 2, 1], Permutation.symmetric(3))
print("composition:", diet.composition)
print("shifts:     ", diet.shifts)

mu = diet_action(diet)
print("action on {1..7}:", mu.cycle_string())

# Walking each orbit and writing down the block letters spells a primitive
# word per orbit; normalized to Lyndon representatives they form a multiset.
words = orbit_words(diet, abc)
print("orbit words:", words)

# Cylinders: which starting points begin with a given pattern.
for pattern in ("a", "ab", "aac"):
    print(f"starts spelling {pattern!r}:", sorted(diet_cylinder(diet, pattern, abc)))

# The correspondence runs both ways: a clustering multiset determines the
# discrete exchange through its letter counts.
back = diet_from_multiset(words, Permutation.symmetric(3), abc)
print("rebuilt composition:", back.composition)
assert orbit_words(back, abc) == words

# The same map as an interval exchange with integer lengths: integers k
# live in the real cells [k-1, k), and midpoints move exactly like k does.
iet = as_iet(diet, abc)
print("as interval exchange:", iet)
verdict = iet.check_keane(50)
print("connection check:", "regular so far" if verdict.is_regular else
      f"connection after {verdict.failure.n} steps (periodic maps always have one)")
