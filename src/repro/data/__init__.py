"""Dataset substrate.

The paper demonstrates on a Delicious crawl (Wetzker et al., 2008) that is
not redistributable; :mod:`repro.data.delicious` generates a synthetic corpus
with the same controlling statistics (power-law tag popularity, 50-200
multi-tagged documents per user, tag-correlated user interests).
"""

from repro.data.delicious import DeliciousGenerator

__all__ = ["DeliciousGenerator"]
