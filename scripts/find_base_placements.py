"""Search small integer coordinates for each catalogue base so that the
half-turn-symmetric l-infinity placement is character-0 isostatic according
to both the colouring oracle and the rank oracle (the same check,
placement._accept, that base_placement re-runs on use).  The first (smallest
coordinate box, then lexicographically smallest) hit per base is printed for
freezing into gainrig.placement.BASE_PLACEMENTS."""

from fractions import Fraction as F
from itertools import product

from gainrig.catalog import BASE_CATALOG
from gainrig.norms import LINF
from gainrig.placement import PlacementError, _accept


def search(g, radius):
    coords = [c for c in range(-radius, radius + 1)]
    for pts in product(product(coords, coords), repeat=g.n):
        try:
            _accept(g, [(F(x), F(y)) for x, y in pts], LINF, 0, "candidate")
        except PlacementError:
            continue
        return pts
    return None


def main():
    for bid, g in BASE_CATALOG.items():
        for radius in (2, 3, 4, 5):
            hit = search(g, radius)
            if hit is not None:
                print(f'"{bid}": {hit},')
                break
        else:
            print(f"{bid}: NOT FOUND")


if __name__ == "__main__":
    main()
