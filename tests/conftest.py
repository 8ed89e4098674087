import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from spidersearch.goodness import Thresholds
from spidersearch.graph import Graph, complete_bipartite, random_gnm, subdivide


def random_small_graphs(count: int, n_max: int, seed: int, density: float = 1.5):
    """Deterministic stream of small sparse-ish random graphs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, n_max)
        m_cap = n * (n - 1) // 2
        m = min(m_cap, rng.randint(0, int(density * n)))
        out.append(random_gnm(n, m, rng.randrange(2**30)))
    return out


def criterion5_hosts(seed: int = 5055, count: int = 200):
    """Acceptance criterion 5's fuzz mix: (host, thresholds, L) triples of
    small and large random hosts and subdivided K_{s,t}, some with chords."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.random()
        if kind < 0.6:
            n = rng.randint(8, 60)
            m = min(n * (n - 1) // 2, int(n * rng.uniform(1.0, 2.0)))
            g = random_gnm(n, m, rng.randrange(2**30))
        elif kind < 0.85:
            s = rng.choice([2, 3])
            t = rng.choice([2, 3, 4])
            k = rng.choice([2, 3])
            g = subdivide(complete_bipartite(s, t), k)
            if rng.random() < 0.5:
                chords = random_gnm(g.n, min(g.n, 8), rng.randrange(2**30))
                g = Graph(g.n, g.edges | chords.edges)
        else:
            n = rng.randint(61, 120)
            m = int(n * rng.uniform(1.0, 1.6))
            g = random_gnm(n, m, rng.randrange(2**30))
        thr = Thresholds.constant(rng.choice([1, 2, 3]))
        L = rng.choice([2.0, 4.0])
        yield g, thr, L
