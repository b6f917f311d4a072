"""Abstract isomorphism of modules, for the tests: the program checks the
recollement axioms by their canonical maps and has no use for it."""

from tiltkit.modules import Module, decompose, is_isomorphic_indec


def is_isomorphic(x: Module, y: Module) -> bool:
    """Isomorphism test via Krull-Schmidt: decompose and match classes."""
    if x.dims != y.dims:
        return False
    if x.mats == y.mats:
        return True
    dx = decompose(x)
    dy = decompose(y)
    if len(dx) != len(dy):
        return False
    used = [False] * len(dy)
    for mod, mult, _ in dx:
        found = False
        for t, (mod2, mult2, _) in enumerate(dy):
            if not used[t] and mult == mult2 and is_isomorphic_indec(mod, mod2):
                used[t] = True
                found = True
                break
        if not found:
            return False
    return True
