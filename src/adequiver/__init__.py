"""ADE root data, finite subgroup quivers, and matrix-data verification.

The pieces, bottom up: exact rational linear algebra (`linalg`), Dynkin
diagrams with marks and positive roots (`dynkin`), polynomials over Q, Z
and F_p (`poly`), the finite subgroups of SL(2, C) with their character
tables and graph matching (`gamma`), doubled/framed/looped quivers
(`quiver`), node polynomials and their vanishing loci (`deformation`),
relation and non-degeneracy checks for quiver representations (`adhm`),
the torsion-module dictionary (`sheaf`), a symbolic two-term complex
checker (`monad`), JSON file formats (`io`), and the command line (`cli`).

Each name is reached through the submodule that defines it, as in
`from adequiver import dynkin`; `import adequiver` alone loads no
submodule.  So a caller, the command line included, loads only the
modules it uses, and numpy only where a numeric path runs.
"""

__version__ = "0.1.0"
