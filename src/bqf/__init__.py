"""Exact arithmetic for positive definite binary quadratic forms.

Forms, the extended modular group and its actions, base-point geometry,
Gauss reduction with witnesses, class enumeration, Legendre residue
criteria, and the invariant set of imaginary quadratic irrationals.
Everything is integer or rational arithmetic; floats appear only when the
CLI renders SVG.
"""

from .enumeration import *
from .forms import *
from .group import *
from .points import *
from .qfield import *
from .qfield import act as act_on_element
from .reduction import *
from .residues import *

# each module's __all__ names what it exports; the package re-exports all of them
__all__ = ["act_on_element"]
__all__ += enumeration.__all__
__all__ += forms.__all__
__all__ += group.__all__
__all__ += points.__all__
__all__ += qfield.__all__
__all__ += reduction.__all__
__all__ += residues.__all__
