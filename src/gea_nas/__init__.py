"""Guided evolutionary architecture search over a fixed cell space.

Aging evolution where each cycle's candidate children are ranked by a
training-free Jacobian-correlation score and only the top child is trained
(looked up) and admitted. Includes plain evolution and random-search
baselines, tabular and synthetic fitness sources, and a CLI for seeded
experiments. Import from the modules (``gea_nas.zero_proxy`` and so on);
the package itself exports no names.
"""

__version__ = "0.1.0"
