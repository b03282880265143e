"""elldens: density of smooth Weierstrass fibrations over projective space.

The package builds finite fields (`gf`), homogeneous coordinate sections
(`sections`), closed points and jet evaluation maps (`base`), Weierstrass
data with singularity detection (`weier`), zeta-function point counting
(`zeta`), and the density machinery tying them together (`density`).
A command line front end lives in `cli`.

Importing the package loads none of its modules: import the module you use
(``from elldens import gf`` or ``from elldens.density import mc_density``),
so a caller pays only for what it reads.
"""

__version__ = "0.1.0"
