"""A fixpoint binder's stage function, applied once to any member set.

pfp_iterate runs a binder from the empty set only.  To probe the stage
function elsewhere, the binder's body goes under a fresh binder that it
never reads, and the old stage variable stays free, bound to the probed
set.  The fresh binder's stage function is then constant, so stage 1 of
its run is the image.
"""

from itertools import count

from hopfp.domains import Domain, index_to_value, make_set
from hopfp.evaluator import pfp_iterate
from hopfp.logic import Pfp


def stage_image(lts, f, members, env=None, ctx=None):
    """Member indices of f's stage function applied to the set with the
    given member indices; env and ctx are as for pfp_iterate."""
    taken = f.body.free | {f.var, *f.args}
    fresh = next(name for name in (f.var + "'" * i for i in count(1)) if name not in taken)
    elem = Domain(f.vtype.elem, lts.n)
    declared = {**(ctx or {}), f.var: f.vtype}
    bound = {**(env or {}), f.var: make_set(index_to_value(elem, m) for m in members)}
    return pfp_iterate(lts, Pfp(fresh, f.vtype, f.body, f.args), bound, declared).stages[1]
