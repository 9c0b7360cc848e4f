"""Dense region sources for the tests, read as the DeltaSources of their columns.

The wave map takes DeltaSources only.  A dense batch (m, N+1, D) of region
sources is the sum, per source, of its nonzero columns; these helpers build
that form and add the map's answers back up per source, so that a test may
state its sources densely and still read the library's numbers bit for bit.
"""

import numpy as np

from fracbundle.s2s import DeltaSources, blago_bilinear, owner_sums


def delta_columns(dense):
    """(DeltaSources, owners) of dense (m, N+1, D) sources: their nonzero
    columns, each on a profile of its own, in owner then component order;
    column k is the time profile of dense[owners[k]] at its component."""
    dense = np.asarray(dense)
    owners, comps = np.nonzero(np.any(dense != 0, axis=1))
    return DeltaSources(dense[owners, :, comps], np.arange(len(owners)), comps), owners


def region_values(section, vertices):
    """A TimeSection's values on the region vertices, as one dense source
    (N+1, |U| r); the section must vanish off the region."""
    off = np.ones(section.values.shape[1], dtype=bool)
    off[list(vertices)] = False
    assert not np.any(section.values[:, off]), "source is not supported in the region"
    return section.values[:, list(vertices)].reshape(len(section.values), -1)


def dense_respond(wmap, dense, rows=None):
    """wmap.respond of dense sources: the responses of their columns, summed
    per source."""
    columns, owners = delta_columns(dense)
    out = np.zeros((len(dense), len(wmap.grid) if rows is None else len(rows), wmap.local.dim),
                   dtype=np.complex128)
    np.add.at(out, owners, wmap.respond(columns, rows))
    return out


def dense_pairing(wmap, F, H):
    """blago_bilinear of dense sources: the pairings of their columns, summed
    per pair of sources."""
    (f, of), (h, oh) = delta_columns(F), delta_columns(H)
    return owner_sums(blago_bilinear(wmap, f, h), of, oh, (len(F), len(H)))


def dense_gram(wmap, dense):
    """The Hermitized Gram (G + G^H) / 2 of dense sources."""
    G = dense_pairing(wmap, dense, dense)
    return 0.5 * (G + G.conj().T)
