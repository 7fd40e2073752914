"""Definition-direct and superseded implementations that the tests keep as
references for the code that replaced them."""

import itertools
import random
import re

from fixfactor.census import _POINT_NAMES, _relabelings, enumerate_preorders, monotone_maps
from fixfactor.decomposition import Partition
from fixfactor.errors import ContinuityError, InternalError, LocatorError, SizeLimitError
from fixfactor.ladder.sets import StrandProfile, SymbolicSet, ladder_aorb0_addr
from fixfactor.ladder.space import TOP, base_addr, child_term
from fixfactor.ordinals import ZERO
from fixfactor.topology import FiniteSystem, _iter_bits, space_from_up_masks


def count_preorders_bruteforce(n: int) -> int:
    """Independent counter: filter all reflexive relations for transitivity."""
    if n > 3:
        raise SizeLimitError("brute-force counter is for n <= 3")
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(offdiag)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                up[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in _iter_bits(up[i]):
                if up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def preorder_class(up: tuple[int, ...], relabelings: list) -> tuple[tuple[int, ...], list]:
    """The least relabeled up-mask vector of a preorder, which names its
    isomorphism class, and its automorphisms but the identity as (g, g^-1)."""
    key, aut = up, []
    for g, inv, table in relabelings:
        image = tuple(table[up[i]] for i in inv)  # image[g(i)] = g(up[i])
        if image < key:
            key = image
        elif image == up:
            aut.append((g, inv))
    return key, aut


def reference_orderly_preorders(n: int):
    """The up-masks and automorphisms of the first labeled preorder of each
    class, by the earlier generator that names every labeled preorder's
    class by its least relabeling."""
    seen = set()
    relabelings = _relabelings(n)
    for space in enumerate_preorders(n):
        key, aut = preorder_class(space.up, relabelings)
        if key not in seen:
            seen.add(key)
            yield space.up, aut


def reference_monotone_maps(space):
    """The images of every continuous self-map, by the earlier backtrack
    that tries each of the n images at each point and checks it against
    every earlier point, in lexicographic order."""
    n = space.n
    img = [0] * n

    def ok(i: int) -> bool:
        for j in range(i + 1):
            if space.up[i] >> j & 1 and not space.up[img[i]] >> img[j] & 1:
                return False
            if space.up[j] >> i & 1 and not space.up[img[j]] >> img[i] & 1:
                return False
        return True

    def rec(i: int):
        if i == n:
            yield tuple(img)
            return
        for v in range(n):
            img[i] = v
            if ok(i):
                yield from rec(i + 1)

    yield from rec(0)


def one_class(space) -> Partition:
    """The partition with the whole space as its only class."""
    return Partition.from_class_of(space, [0] * space.n)


def comparability_components(space) -> list[int]:
    """Connected components of the comparability graph, as masks, by a
    breadth-first search from each unseen point."""
    n = space.n
    adj = [space.up[i] | space.down[i] for i in range(n)]
    seen = 0
    comps = []
    for i in range(n):
        if seen >> i & 1:
            continue
        comp = 1 << i
        frontier = comp
        while frontier:
            nxt = 0
            for j in _iter_bits(frontier):
                nxt |= adj[j]
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        comps.append(comp)
    return comps


def random_generator_up_masks(rng, n: int) -> list[int]:
    """Reflexive generator up masks of a seeded random relation: a few
    isolated points, random pairs and one mutual cycle.  The pairs point
    either way, so a point's extra bits may all lie below its index."""
    live = rng.sample(range(n), max(1, n - rng.randrange(0, n // 3 + 1)))
    pairs = [(rng.choice(live), rng.choice(live))
             for _ in range(rng.randrange(0, 2 * len(live)))]
    cycle = rng.sample(live, min(len(live), rng.randrange(1, 5)))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    return up


SUBSET_SEED = 20260809


def random_systems(n: int, count: int, seed: int = SUBSET_SEED) -> list[FiniteSystem]:
    """Deterministic pseudo-random systems (for spot checks beyond census
    size), on 1 to 8 points, one point name per letter of ``_POINT_NAMES``."""
    if not 1 <= n <= len(_POINT_NAMES):
        raise SizeLimitError(
            f"n={n} is outside the random system range 1..{len(_POINT_NAMES)}")
    rng = random.Random(seed)
    names = tuple(_POINT_NAMES[:n])
    out = []
    while len(out) < count:
        up = [1 << i for i in range(n)]
        for _ in range(rng.randrange(0, 2 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            up[i] |= 1 << j
        space = space_from_up_masks(names, up)
        maps = list(itertools.islice(monotone_maps(space), 64))
        out.append(FiniteSystem(space, rng.choice(maps)))
    return out


def per_class_certificate(sys_, p) -> bool:
    """The degree-0 certificate as one union per class: U_i and {map(i)}
    over the points i of each class, tested against the class."""
    up, img = sys_.space.up, sys_.map.img
    reach = [0] * p.num_classes
    for i, c in enumerate(p.class_of):
        reach[c] |= up[i] | 1 << img[i]
    return all(r & ~m == 0 for r, m in zip(reach, p.classes))


def per_point_validate_map(space, assignments: dict) -> tuple[int, ...]:
    """The images of a monotone assignment, checked at every point; a
    broken pair raises ``ContinuityError`` with the first one in point
    order."""
    img = tuple(space.idx(assignments[p]) for p in space.points)
    for i, u in enumerate(space.up):
        for j in _iter_bits(u & ~(1 << i)):
            if not space.up[img[i]] >> img[j] & 1:
                raise ContinuityError(space.points[i], space.points[j])
    return img


def per_point_specialization_pairs(space) -> list[tuple[str, str]]:
    """Every non-reflexive pair, from every point's minimal open set."""
    return [(space.points[i], space.points[j])
            for i, u in enumerate(space.up) for j in _iter_bits(u & ~(1 << i))]


def covering_pairs(sys_) -> list[tuple[str, str]]:
    """Transitive reduction of specialization from the set of every pair
    of comparable group heads, one scan over all heads per pair; then one
    cycle per nontrivial group of mutually specializing points."""
    space = sys_.space
    n = space.n
    first_with: dict[int, int] = {}
    rep = []
    for i in range(n):
        rep.append(first_with.setdefault(space.up[i], i))
    heads = sorted(set(rep))
    less = {
        (a, b)
        for a in heads
        for b in heads
        if a != b and space.up[a] >> b & 1
    }
    out = []
    for a, b in sorted(less):
        if not any((a, k) in less and (k, b) in less for k in heads):
            out.append((space.points[a], space.points[b]))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(rep[i], []).append(i)
    for members in groups.values():
        if len(members) > 1:
            ordered = sorted(members)
            for a, b in zip(ordered, ordered[1:] + ordered[:1]):
                out.append((space.points[a], space.points[b]))
    return out


def term_at(root, path):
    """The subterm at a family path, by a walk from the root."""
    t = root
    for step in path:
        t = child_term(t, step)
    return t


def subtree_top(space, path):
    """Top point of the node instance at a family path, by a walk from the
    root: the next sibling's base, or the space's top at the root."""
    if not path:
        return TOP
    axis, m = path[-1]
    nxt = (axis, m + 1)
    return path[:-1] + (nxt,) + base_addr(child_term(term_at(space.term, path[:-1]), nxt))


def strand_paths(win) -> list:
    """The strand paths of a window, in address order, off its addresses."""
    return list(dict.fromkeys(a[:-1] for a in win.addrs if a != TOP))


def family_paths(win) -> list:
    """The family nodes of a window: every proper prefix of a strand path."""
    return list(dict.fromkeys(p[:i] for p in strand_paths(win) for i in range(len(p))))


def last_member(win, path):
    """Path of the last materialized member of the family at path: its index
    is what the family cut leaves after the indices along the path."""
    axis = "block" if term_at(win.space.term, path).kind == "ramp" else "copy"
    return path + ((axis, win.family_cut - sum(m for _, m in path)),)


def last_member_base(win, path):
    """Base point of the last materialized member of the family at path."""
    last = last_member(win, path)
    return last + base_addr(term_at(win.space.term, last))


def term_walk_min_nbhd(win, addr) -> set:
    """Minimal-neighborhood stub from the term-walk sources: the point, the
    materialized z = +cut point of a forward source, the z = -cut point of
    a backward source and the last member's base of a family source."""
    out = {addr}
    for kind, path in term_walk_point_sources(win.space, addr):
        if kind == "fwd":
            cand = path + (("z", win.strand_cut),)
        elif kind == "bwd":
            cand = path + (("z", -win.strand_cut),)
        else:
            cand = last_member_base(win, path)
        if cand in win.addr_set:
            out.add(cand)
    return out


def term_walk_strand_witnesses(win, path) -> tuple:
    """The closure witnesses of a strand by walks from the root: the
    materialized tops of the families in whose last member it lies,
    outermost first, and its own top when materialized."""
    held = tuple(top for i in range(len(path))
                 if path[:i + 1] == last_member(win, path[:i])
                 and (top := subtree_top(win.space, path[:i])) in win.addr_set)
    top = subtree_top(win.space, path)
    return held, top if top in win.addr_set else None


def window_export_pairs(win) -> list[tuple[str, str]]:
    """The specialization pairs of a window's export, from the strand
    targets and the last member of every family: each materialized
    forward and backward limit into the closure of the strand's extreme
    orbit point, and each materialized family top into the closure of its
    last member's base."""
    by_addr = dict(zip(win.addrs, win.names))
    pairs = []
    for p in strand_paths(win):
        fwd_t, bwd_t = strand_targets(win.space, p)
        hi = p + (("z", win.strand_cut),)
        lo = p + (("z", -win.strand_cut),)
        if fwd_t in by_addr and hi in by_addr:
            pairs.append((by_addr[fwd_t], by_addr[hi]))
        if bwd_t in by_addr and lo in by_addr:
            pairs.append((by_addr[bwd_t], by_addr[lo]))
    for path in family_paths(win):
        top = subtree_top(win.space, path)
        if top in by_addr:
            pairs.append((by_addr[top], by_addr[last_member_base(win, path)]))
    return pairs


def strand_targets(space, path) -> tuple:
    """(forward limit, backward limit) of the strand instance at path."""
    return path + (("A",),), subtree_top(space, path)


def term_walk_point_sources(space, addr) -> list[tuple]:
    """Convergence sources by the earlier term walk: from the end of the
    address, each step's suffix is checked against the base address of its
    subterm, and a source's kind is read off the subterm at its path.

    kinds: ("fwd", strand path), ("bwd", strand path),
    ("family", node path).  Orbit points have no sources."""

    def top_sources_at(path) -> list[tuple]:
        kind = "bwd" if term_at(space.term, path).kind == "strand" else "family"
        return [(kind, path)]

    if addr == TOP:
        return top_sources_at(())
    if addr[-1][0] == "z":
        return []
    out = [("fwd", addr[:-1])]
    for j in range(len(addr) - 2, -1, -1):
        axis, m = addr[j]
        if addr[j + 1:] != base_addr(term_at(space.term, addr[:j + 1])):
            break
        if m >= 1:
            out.extend(top_sources_at(addr[:j] + ((axis, m - 1),)))
            break
    return out


def four_branch_aorb0_addr(space, addr) -> SymbolicSet:
    """The closed form with one branch per source kind, over the term-walk
    sources: a forward source adds its strand's ``A``, a backward source
    the whole strand and both of its limits, a family source its top."""
    out = SymbolicSet(space)
    if addr[-1][0] == "z":
        path = addr[:-1]
        out.strands[path] = StrandProfile(addr[-1][1])
        out.pts.add(path + (("A",),))
        return out
    out.pts.add(addr)
    for kind, path in term_walk_point_sources(space, addr):
        if kind == "fwd":
            out.pts.add(path + (("A",),))
        elif kind == "bwd":
            out.strands[path] = StrandProfile()
            out.pts.update(strand_targets(space, path))
        else:
            out.pts.add(subtree_top(space, path))
    return out


def _is_generic(a, loc, pos: int) -> bool:
    """True if a's step at pos is the locator's generic index: the same
    kind of step, under the same prefix."""
    return len(a) > pos and a[pos][0] == loc[pos][0] and a[:pos] == loc[:pos]


def _shift_key(s, loc, pos: int) -> tuple:
    """The set with the generic index written relative to the locator's."""
    v = loc[pos][1]

    def shift_addr(a):
        if not _is_generic(a, loc, pos):
            return a
        return a[:pos] + ((a[pos][0], a[pos][1] - v),) + a[pos + 1:]

    def shift_profile(path, prof):
        if path != loc[:pos] or loc[pos][0] != "z" or prof.start is None:
            return prof
        return StrandProfile(prof.start - v)

    return (
        tuple(sorted(shift_addr(a) for a in s.pts)),
        tuple(sorted((shift_addr(p), shift_profile(p, v))
                     for p, v in s.strands.items())),
    )


def _generic_json(s, loc, pos: int) -> dict:
    """Render the set with the generic index spelled relative to the
    locator's own."""
    rep = loc[pos][1]

    def shift(match) -> str:
        d = int(match.group()) - rep
        return "m" if d == 0 else f"m{d:+d}"

    def relabel(text: str) -> str:
        # a rendered name spells one number per address position, in order;
        # only a final ("A",) step spells none
        m = list(re.finditer(r"-?\d+", text))[pos]
        return text[:m.start()] + shift(m) + text[m.end():]

    comps = []
    # to_json lists the points, then the strands, each in address order
    ats = sorted(s.pts) + sorted(s.strands)
    for at, comp in zip(ats, s.to_json()["components"]):
        if comp["kind"] == "point":
            if _is_generic(at, loc, pos):
                comp["at"] = relabel(comp["at"])
        elif _is_generic(at, loc, pos):
            comp["region"] = relabel(comp["region"])
        elif at == loc[:pos] and loc[pos][0] == "z":
            # the locator's own strand, whose orbit indices are generic
            comp["profile"] = re.sub(r"-?\d+", shift, comp["profile"])
        comps.append(comp)
    return {"components": comps, "generic_index": "m"}


def shift_relabel_aorb0_json(space, locator: str) -> dict:
    """The rendered ``--aorb0`` answer by the earlier codings of a generic
    index: the concrete answers at m = 4 and m = 5 compared as address sets
    with the first differing position of the two locators shifted, then the
    answer at 4 relabeled at that position of each rendered name."""
    text = locator.strip()
    if text.rsplit(":", 1)[-1].rsplit("/", 1)[-1] != "m":
        return ladder_aorb0_addr(space, space.parse_locator(text)).to_json()
    head, sep, _ = text.rpartition(":")
    la = space.parse_locator(f"{head}{sep}4")
    lb = space.parse_locator(f"{head}{sep}5")
    pos = next(i for i, (x, y) in enumerate(zip(la, lb)) if x != y)
    a = ladder_aorb0_addr(space, la)
    b = ladder_aorb0_addr(space, lb)
    if _shift_key(a, la, pos) != _shift_key(b, lb, pos):
        raise LocatorError(
            f"result for {locator!r} is not uniform in the generic index")
    return _generic_json(a, la, pos)


class ReferenceWindow:
    """A window with the earlier per-point audit: address sets, and each
    base orbit recomputed from its own stub by ``orbit_w`` and then
    ``closure_w``.  Every other attribute is the window's own."""

    def __init__(self, win):
        self.win = win
        self.addr_set = frozenset(win.addrs)
        self.nonfrontier = self.addr_set - win.frontier
        self.position = {a: i for i, a in enumerate(win.addrs)}

    def __getattr__(self, name):
        return getattr(self.win, name)

    def phi_w(self, addr):
        """True dynamics with a frontier jump onto the forward limit."""
        if addr[-1][0] != "z":
            return addr
        nxt = self.space.phi(addr)
        if nxt in self.addr_set:
            return nxt
        return addr[:-1] + (("A",),)

    def orbit_w(self, seed: set) -> set:
        out = set(seed)
        frontier = list(seed)
        while frontier:
            nxt = self.phi_w(frontier.pop())
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
        return out

    def closure_w(self, s: set) -> set:
        """Add limit points witnessed by frontier membership."""
        out = set(s)
        work = list(s)
        hi, lo = ("z", self.strand_cut), ("z", -self.strand_cut)
        while work:
            a = work.pop()
            if a == TOP:
                continue
            p, last = a[:-1], a[-1]
            cands, top = self.strands[p]
            if last == hi:
                cands += (p + (("A",),),)
            elif last == lo and top is not None:
                cands += (top,)
            for c in cands:
                if c not in out:
                    out.add(c)
                    work.append(c)
        return out

    def min_nbhd_w(self, addr) -> set:
        """Minimal-neighborhood stub: the point plus one frontier point per
        convergence source."""
        return {addr, *self.stubs.get(addr, ())}

    def aorb0_w(self, addr) -> set:
        return self.closure_w(self.orbit_w(self.min_nbhd_w(addr)))

    def decode(self, sset) -> set:
        """The window points of a symbolic set, by a membership test of each
        point of each strand it names."""
        out = {a for a in sset.pts if a in self.addr_set}
        for path, prof in sset.strands.items():
            for j in range(-self.strand_cut, self.strand_cut + 1):
                a = path + (("z", j),)
                if prof.contains(j) and a in self.addr_set:
                    out.add(a)
        return out

    def check_orbit_set(self, addr, claimed, violations: list) -> None:
        """The earlier audit of one base orbit claim, each check naming the
        points it finds in address order."""
        render = self.space.render
        decoded = self.decode(claimed)
        recomputed = self.aorb0_w(addr)
        for what, found in (
            ("does not contain its own point", set() if addr in decoded else {addr}),
            ("image of {} escapes the set",
             {a for a in decoded if (img := self.space.phi(a)) in self.addr_set
              and img not in decoded and a not in self.frontier}),
            ("closure violation at {}", self.closure_w(decoded) - decoded - self.frontier),
            ("minimal neighborhood point {} missing",
             self.min_nbhd_w(addr) - decoded - self.frontier),
            ("disagreement with window recomputation at {}",
             (recomputed ^ decoded) & self.nonfrontier),
        ):
            for a in sorted(found, key=self.position.__getitem__):
                violations.append(f"aorb0({render(addr)}): {what.format(render(a))}")


def two_below(backward_source):
    """A mutant of ``backward_source`` that takes the sibling two indices
    below the point instead of one."""

    def mutant(space, addr):
        path = backward_source(space, addr)
        if not path:
            return path
        axis, m = path[-1]
        return path[:-1] + ((axis, m - 1),) if m else None

    return mutant


def per_point_check_trace(win, trace, report) -> dict[int, int]:
    """The earlier trace audit, which keys every keyed point at every degree
    and checks invariance and the merge order point by point."""
    space = win.space
    if not trace.entries or trace.entries[0][0] != ZERO:
        raise InternalError(f"the trace of {space.term} does not start at degree 0")
    phi, frontier, *_ = win.index
    addrs = win.addrs
    nonfrontier = [i for i, edge in enumerate(frontier) if not edge]
    moves = [(i, img) for i in nonfrontier if (img := phi[i]) != i]
    keyed = sorted({*nonfrontier, *(img for _, img in moves)})
    keyed_addrs = [addrs[i] for i in keyed]
    at = {i: p for p, i in enumerate(keyed)}
    moves = [(at[i], at[img]) for i, img in moves]
    nonfrontier = [at[i] for i in nonfrontier]
    base = prev = prev_degree = None
    for degree, part in trace.entries:
        report.checks_run += 1
        numbers = {}
        cls = [numbers.setdefault(k, len(numbers)) for k in map(part.key_of, keyed_addrs)]
        for p, q in moves:
            if cls[p] != cls[q]:
                report.violations.append(f"degree {degree}: class of "
                                         f"{space.render(keyed_addrs[p])} is not invariant")
        if prev is None:
            base = cls
        else:
            merged_to = {}
            for p in nonfrontier:
                if merged_to.setdefault(prev[p], cls[p]) != cls[p]:
                    report.violations.append(
                        f"degrees {prev_degree}->{degree}: class of "
                        f"{space.render(keyed_addrs[p])} splits a previously merged class")
                    break
        prev, prev_degree = cls, degree
    return dict(zip(keyed, base))
