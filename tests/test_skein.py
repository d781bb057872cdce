"""Differential tests of the skein check's shared crossing-change walk.

``skein_verdict`` reads the skein difference T(D+) - T(D-) at every
resolvable chord c of a diagram D from one walk of D's subsets, and the
table of each smoothing from ``_smoothing_subsets``.  The reference below is
the per-chord verdict it replaced, with three tables per resolvable chord,
on D, on the materialized crossing change D^c and on the smoothing, each
from the mask walk (``maskwalk``) of its own diagram, so none shares the
walk under test.  The verdict is True on every diagram the check sees, so
each difference is also compared with s_c * (T(D) - T(D^c)) from those
tables, and a deliberately wrong smoothing shows that the check can still
fail.  The walk behind the shared tables is also compared with the
mask walk, subset by subset.  The check samples endpoint words, not
diagrams; its sampler is compared with the diagram generators it draws like.
"""

import functools
import random

from maskwalk import _crossing_change_subsets as mask_crossing_change_subsets
from maskwalk import _qualifying_subsets as mask_qualifying_subsets
from maskwalk import chord_walks, crossing_change_lists, decoded, endpoints, signed_sums, skein_difference
from vknot import arrows, verify
from vknot.arrows import _crossing_change_tables, _smoothing_subsets
from vknot.diagram import (
    BasedGaussDiagram,
    _interleaves_nothing,
    _smoothed_words,
    crossing_change,
    make_diagram,
    serialize_gauss_code,
    smooth,
)
from vknot.enumeration import (
    connecting_chords,
    enumerate_all_diagrams,
    random_knot_diagram,
    random_link_diagram,
)
from vknot.verify import SweepConfig, recheck, run_check, skein_verdict


# Diagrams are values, so the table comparison and the reference verdict
# can share each materialized diagram's table.
@functools.lru_cache(maxsize=256)
def reference_table(diagram, chord=None):
    """The signed table of ``diagram`` from the mask walk, over the subsets holding ``chord`` if it is set."""
    layout, signs = endpoints(diagram)
    required = None if chord is None else diagram.chord_ids().index(chord)
    return signed_sums(mask_qualifying_subsets(layout, range(diagram.num_chords + 1), required), signs)


def reference_difference(diagram, chord):
    """s_c * (T(D) - T(D^c)) over the subsets holding ``chord``, from the materialized diagrams."""
    switched = crossing_change(diagram, chord)
    return skein_difference(reference_table(diagram, chord), reference_table(switched, chord), diagram.sign(chord))


def reference_skein_verdict(diagram, config, smoothing=smooth):
    """The skein check as it was: per chord, each table by its own walk of its own diagram."""
    if diagram.num_circles == 1:
        chords = diagram.chord_ids()
    else:
        chords = connecting_chords(diagram)
    for chord in chords:
        eps = diagram.sign(chord)
        switched = crossing_change(diagram, chord)
        plus, minus = (diagram, switched) if eps > 0 else (switched, diagram)
        zero = smoothing(diagram, chord)
        t_plus = reference_table(plus, chord)
        t_minus = reference_table(minus, chord)
        t_zero = reference_table(zero)
        sizes = set(t_plus) | set(t_minus) | {s + 1 for s in t_zero}
        for n in sizes:
            if n < 1:
                continue
            for column in (0, 1):
                lhs = t_plus.get(n, (0, 0))[column] - t_minus.get(n, (0, 0))[column]
                rhs = t_zero.get(n - 1, (0, 0))[column]
                if lhs != rhs:
                    return False
    return True


def _assert_shared_walk_matches(G, chords):
    tables = _crossing_change_tables(G.circles, dict(G.signs), chords)
    assert list(tables) == list(chords), str(G)
    for chord in chords:
        assert tables[chord] == reference_difference(G, chord), (str(G), chord)


def _verdict(G, config):
    return skein_verdict(G.circles, dict(G.signs), config)


def _seeded_links(count=200, seed=41):
    rng = random.Random(seed)
    return [random_link_diagram(rng.randint(1, 8), rng) for _ in range(count)]


def test_shared_walk_matches_materialized_tables_on_census():
    config = SweepConfig()
    for G in enumerate_all_diagrams(4):
        _assert_shared_walk_matches(G, G.chord_ids())
        assert _verdict(G, config) is reference_skein_verdict(G, config), str(G)


def test_shared_walk_matches_materialized_tables_on_links():
    config = SweepConfig()
    for G in _seeded_links():
        assert connecting_chords(G)
        _assert_shared_walk_matches(G, connecting_chords(G))
        assert _verdict(G, config) is reference_skein_verdict(G, config), str(G)


def _by_subset(lists):
    return [sorted((tuple(sorted(s)), a, d) for s, a, d in found) for found in lists]


def test_shared_walk_matches_mask_walk():
    # The budget-1 walk lists the mask walk's subsets, and each shared difference is that of their
    # sums, and that of the materialized diagrams' tables.
    rng = random.Random(59)
    diagrams = [random_knot_diagram(rng.randint(1, 8), rng) for _ in range(60)]
    diagrams += [random_link_diagram(rng.randint(1, 8), rng) for _ in range(60)]
    for G in diagrams:
        layout, signs = endpoints(G)
        mask = mask_crossing_change_subsets(layout)
        walk = crossing_change_lists(layout, len(layout[0]))
        assert [_by_subset(lists) for lists in walk] == [_by_subset(lists) for lists in mask], str(G)
        tables = _crossing_change_tables(G.circles, dict(G.signs), G.chord_ids())
        assert list(tables) == list(G.chord_ids()), str(G)
        for i, chord in enumerate(G.chord_ids()):
            diff, switched_signs = tables[chord], signs[:i] + [-signs[i]] + signs[i + 1:]
            want = skein_difference(signed_sums(mask[0][i], signs), signed_sums(mask[1][i], switched_signs), signs[i])
            assert diff == want == reference_difference(G, chord), (str(G), i)


def test_smoothing_subsets_match_the_smoothed_diagrams_walk():
    # The smoothed diagram's words, and in its chord labels the subsets of the walk of its layout;
    # none exactly when a knot chord interleaves nothing (a connecting chord of a link merges its
    # circles).
    checked = 0
    for G in [*enumerate_all_diagrams(4), *_seeded_links()]:
        for chord in G.chord_ids():
            smoothed = smooth(G, chord)
            ids = smoothed.chord_ids()
            want = [(tuple([ids[j] for j in subset]), tuple([ids[j] for j in first]))
                    for subset, first in chord_walks(endpoints(smoothed)[0], len(ids))]
            words, walked = _smoothing_subsets(G.circles, chord)
            assert words == smoothed.circles, (str(G), chord)
            got = decoded(words, walked)
            assert sorted(got) == sorted(want), (str(G), chord)
            if G.num_circles == 1:
                assert (got == []) is _interleaves_nothing(G.circles[0], chord), (str(G), chord)
            elif chord in connecting_chords(G):
                assert got, (str(G), chord)
            checked += 1
    assert checked > 90000


def _diagram_population(config):
    """The skein population as diagrams, drawn by the diagram generators."""
    rng = random.Random(config.seed)
    for i in range(config.samples):
        k = rng.randint(1, config.random_max_chords)
        yield (random_link_diagram if i % 2 else random_knot_diagram)(k, rng)


def _sample_diagrams(config):
    return [make_diagram(circles, signs) for circles, signs in verify._population_random_skein(config)]


def test_word_sampler_draws_what_the_diagram_generators_draw():
    configs = (SweepConfig(), SweepConfig(samples=5000, seed=1),
               SweepConfig(samples=2000, random_max_chords=10, seed=7))
    for config in configs:
        samples = list(verify._population_random_skein(config))
        diagrams = list(_diagram_population(config))
        assert len(samples) == len(diagrams) == config.samples
        for (circles, signs), G in zip(samples, diagrams):
            assert tuple(map(tuple, circles)) == G.circles, str(G)
            assert list(signs.items()) == list(G.signs), str(G)  # chords 1..k, in order


def _smoothed_words_off_basepoint(circles, chord):
    """A wrong smoothing of endpoint words: the first circle's basepoint ends up one endpoint late."""
    first, *rest = _smoothed_words(circles, chord)
    return (first[1:] + first[:1], *rest)


def _smooth_off_basepoint(diagram, chord):
    """The same wrong smoothing of a diagram."""
    smoothed = smooth(diagram, chord)
    first, *rest = smoothed.circles
    return BasedGaussDiagram((first[1:] + first[:1], *rest), smoothed.signs)


def test_wrong_smoothing_is_caught(monkeypatch):
    config = SweepConfig(samples=200, seed=3)
    expected = [
        serialize_gauss_code(G)
        for G in _sample_diagrams(config)
        if not reference_skein_verdict(G, config, smoothing=_smooth_off_basepoint)
    ]
    monkeypatch.setattr(arrows, "_smoothed_words", _smoothed_words_off_basepoint)
    report = run_check("skein", config)
    assert 0 < report.failures < report.population == 200
    assert list(report.counterexamples) == expected
    for code in report.counterexamples:
        assert recheck("skein", code, config) is False


def test_skein_holds_on_larger_random_diagrams():
    # Up to 10 chords, many subsets reach two head-first and two tail-first
    # chords, so the walk's early stop is exercised.
    report = run_check("skein", SweepConfig(samples=200, random_max_chords=10, seed=7))
    assert report.population == 200
    assert report.failures == 0 and report.counterexamples == ()
