"""End-to-end acceptance checks: pinned facts about the benchmark families,
cross-decider agreement on random instances, and the structural laws the
deciders rely on."""

import itertools
import random
import time

from mpda import formats
from mpda.gadgets import anbncn, cfg_intersection, expo, nonreg_forward, parse_grammar
from mpda.marked import decide_marked, mk_subwords, reconstruct
from mpda.model import (
    Configuration,
    Mpda,
    StackSymbol,
    TransitionRule,
    Witness,
    replay,
    successors,
)
from mpda.oracle import (
    OracleBudget,
    is_fully_active,
    reach_config,
    shrink_source,
)
from mpda.regsets import (
    complement,
    intersect,
    is_subset,
    member,
    pre_image,
    singleton,
    union,
)
from mpda.separator import check_separator, decide_separator
from mpda.wqo import _uncolored_projection, colored_leq, colored_machine, colored_successors, decide_wqo, reach_wqo

from helpers import (
    all_configurations,
    bf_higman_leq,
    descendant_forest,
    random_configuration,
    random_regset,
    random_walk,
    random_weak_mpda,
    shortest_path_length,
    trace,
)


def cfg(m, state, *stacks):
    return Configuration(state, tuple(tuple(m.symbol(n) for n in w.split()) for w in stacks))


class TestCriterion01ExampleAutomaton:
    def test_all_engines_agree_on_the_example(self):
        inst = anbncn()
        m = inst.mpda
        final = cfg(m, "q2", "", "")
        v = reach_config(m, inst.source, final, OracleBudget(6))
        assert v.reachable
        assert decide_wqo(m, inst.source, final)
        sep = decide_separator(m, singleton(m, inst.source), singleton(m, final))
        assert sep.status == "reachable"
        # the canonical run takes every rule once: 5 steps
        canonical = Witness(inst.source, (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        assert replay(m, canonical) == final
        assert len(canonical.steps) == 5

    def test_wrong_final_stack_is_unreachable_complete(self):
        inst = anbncn()
        v = reach_config(inst.mpda, inst.source, cfg(inst.mpda, "q2", "X", ""), OracleBudget(6))
        assert v.status == "unreachable"


class TestCriterion02ExponentialFamily:
    def test_shortest_paths_double(self):
        for n, want in ((2, 2), (3, 6), (4, 14)):
            inst = expo(n)
            tgt = cfg(inst.mpda, "q", f"X{n}")
            got = shortest_path_length(inst.mpda, inst.source, tgt, OracleBudget(2 ** n, max_explored=10 ** 6))
            assert got == want

    def test_abstract_decision_stays_fast_at_n8(self):
        inst = expo(8)
        tgt = cfg(inst.mpda, "q", "X8")
        started = time.perf_counter()
        res = decide_marked(inst.mpda, inst.source, tgt)
        elapsed = time.perf_counter() - started
        assert res.reachable
        assert elapsed < 10.0


class TestCriterion03MarkedVersusWqo:
    def test_200_strongly_normed_instances(self):
        rng = random.Random(300)
        for _ in range(200):
            m = random_weak_mpda(rng, strongly_normed=True)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            res = decide_marked(m, s, t)
            assert res.reachable == decide_wqo(m, s, t), f"{s} -> {t} on {m.rules}"
            if res.reachable:
                w = reconstruct(m, s, res)
                assert w.start == s
                assert replay(m, w) == t


class TestCriterion04OracleVersusWqo:
    def test_200_size_nonincreasing_instances(self):
        rng = random.Random(400)
        reached = 0
        for _ in range(200):
            m = random_weak_mpda(rng, size_nonincreasing=True)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            v = reach_config(m, s, t, OracleBudget(max_config_size=s.size))
            assert v.status in ("reachable", "unreachable")
            w = reach_wqo(m, (s,), t)
            assert w.status == v.status, f"{s} -> {t} on {m.rules}"
            if w.reachable:
                # the breadth-first colored search is as short as the oracle's shortest run
                assert len(w.witness.steps) == len(v.witness.steps), f"{s} -> {t} on {m.rules}"
                reached += 1
        assert reached == 62


class TestCriterion05PreImage:
    def test_100_pointwise_checks(self):
        rng = random.Random(500)
        for _ in range(100):
            m = random_weak_mpda(rng)
            M = random_regset(rng, m)
            P = pre_image(m, M)
            for s in all_configurations(m, 3):
                want = any(member(M, nc) for _, nc in successors(m, s))
                assert member(P, s) == want, f"{s} on {m.rules}"


class TestCriterion06Algebra:
    def test_100_set_pairs_against_enumeration(self):
        rng = random.Random(600)
        for _ in range(100):
            m = random_weak_mpda(rng)
            probe = list(all_configurations(m, 4))
            L = random_regset(rng, m)
            M = random_regset(rng, m)
            u = union(L, M)
            n = intersect(L, M)
            cl = complement(L, m)
            cc = complement(cl, m)
            for c in probe:
                in_l, in_m = member(L, c), member(M, c)
                assert member(u, c) == (in_l or in_m)
                assert member(n, c) == (in_l and in_m)
                assert member(cl, c) != in_l
                assert member(cc, c) == in_l
            assert is_subset(n, L) and is_subset(n, M)
            assert is_subset(L, u) and is_subset(M, u)


class TestCriterion07MarkedSubwords:
    def test_the_pinned_enumeration(self):
        a, b, c = StackSymbol("A", 0), StackSymbol("B", 0), StackSymbol("C", 0)
        word = (a, a, c, a, b, b, c, b, c, b, c)

        def render(w):
            return "".join(("~" if ms.marked else "") + ms.base.name for ms in w)

        got = {render(w) for w in mk_subwords(word, colored=frozenset({1, 2, 4, 5, 7}))}
        assert got == {"~A~A~CCBC", "~A~A~C~CBC", "~A~A~C~C~BC", "~A~A~C~C~B~C"}


class TestCriterion08DescendantForest:
    def test_fourteen_nodes_edge_for_edge(self):
        a, b = StackSymbol("A", 0), StackSymbol("B", 0)
        d, c = StackSymbol("D", 1), StackSymbol("C", 1)
        r1 = TransitionRule("q", a, "q", ((b, b), (d,)))
        r2 = TransitionRule("q", d, "q", ((a,), (d,)))
        m = Mpda(("q",), ((a, b), (d, c)), (r1, r2))
        w = Witness(Configuration("q", ((a, a), (c,))), (r1, r2))
        forest = descendant_forest(m, w)
        cfgs = trace(m, w)
        num = {}
        i = 1
        for t in range(len(cfgs)):
            for stk in range(m.stack_count):
                for occ in sorted((o for o in forest if o.config_index == t and o.stack == stk), key=lambda o: o.depth):
                    num[occ] = f"{cfgs[t].stacks[stk][occ.depth].name}{i}"
                    i += 1
        assert len(forest) == 14
        edges = {(num[p], num[ch]) for p, cs in forest.items() for ch in cs}
        assert edges == {
            ("A1", "B4"), ("A1", "B5"), ("A1", "D7"),
            ("D7", "A9"), ("D7", "D13"),
            ("C3", "C8"), ("C8", "C14"),
            ("A2", "A6"), ("A6", "A12"),
            ("B4", "B10"), ("B5", "B11"),
        }


def colored_configurations(m, max_size):
    """Every node of the colored machine of size at most max_size."""
    cm = m.compiled(colored_machine)
    letters = [
        [(s, col) for s in alpha for col in (False, True)]
        for alpha in m.alphabets
    ]
    for state in m.states:
        for total in range(max_size + 1):
            for lens in _compositions(total, m.stack_count):
                for words in itertools.product(
                    *(itertools.product(letters[i], repeat=lens[i]) for i in range(m.stack_count))
                ):
                    yield cm.encode(Configuration(state, tuple(words)))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def colored_deletions(cm, r):
    """Every node of cm obtained by dropping a nonempty set of colored
    occurrences from node r."""
    words = [cm.words[w] for w in r[1:]]
    colored_pos = [(i, p) for i, w in enumerate(words) for p, code in enumerate(w) if code & 1]
    for k in range(1, len(colored_pos) + 1):
        for drop in itertools.combinations(colored_pos, k):
            gone = set(drop)
            yield (
                r[0],
                *(
                    cm.word_id(e for p, e in enumerate(w) if (i, p) not in gone)
                    for i, w in enumerate(words)
                ),
            )


class TestCriterion09Compatibility:
    def test_exhaustive_on_small_colored_configurations(self):
        rng = random.Random(900)
        for _ in range(20):
            m = random_weak_mpda(rng, max_states=2, max_rules=4)
            cm = m.compiled(colored_machine)
            succ_cache = {}

            def succ(c):
                if c not in succ_cache:
                    succ_cache[c] = [nxt for _, nxt in colored_successors(m, c)]
                return succ_cache[c]

            for r in colored_configurations(m, 4):
                ups = succ(r)
                if not ups:
                    continue
                for rp in colored_deletions(cm, r):
                    for u in ups:
                        ok = colored_leq(cm, rp, u) or any(colored_leq(cm, up, u) for up in succ(rp))
                        assert ok, f"{rp} vs {r} -> {u} on {m.rules}"


class TestEmbeddingBuckets:
    def test_leq_implies_equal_uncolored_projections(self):
        # decide_wqo compares a node only with admitted nodes of its bucket
        rng = random.Random(950)
        for _ in range(10):
            m = random_weak_mpda(rng, max_states=2, max_rules=4)
            cm = m.compiled(colored_machine)
            small = list(colored_configurations(m, 3))
            for a in small:
                for b in small:
                    if colored_leq(cm, a, b):
                        assert _uncolored_projection(cm, a) == _uncolored_projection(cm, b), f"{a} <= {b}"


class TestCriterion10Shrink:
    def test_100_yes_instances(self):
        rng = random.Random(1000)
        done = 0
        while done < 100:
            m = random_weak_mpda(rng, strongly_normed=True)
            s = random_configuration(rng, m, 4)
            w = random_walk(rng, m, s, 6)
            if not w.steps:
                continue
            L = union(singleton(m, s), random_regset(rng, m))
            shrunk = shrink_source(m, w, L)
            assert member(L, shrunk)
            assert decide_wqo(m, shrunk, replay(m, w))
            done += 1


class TestCriterion11FullyActiveUpwardClosure:
    def test_100_embeddings_remain_reachable(self):
        rng = random.Random(1100)
        done = 0
        while done < 100:
            m = random_weak_mpda(rng, strongly_normed=True)
            s = random_configuration(rng, m, 3)
            w = random_walk(rng, m, s, 6)
            if not is_fully_active(m, w):
                continue
            if all(not stack for stack in s.stacks):
                continue
            # insert fresh material above a stack bottom; the bottom symbol
            # stays put, so the embedding is bottom-fixed
            stacks = [list(stack) for stack in s.stacks]
            for _ in range(rng.randint(1, 2)):
                i = rng.choice([i for i, stack in enumerate(stacks) if stack])
                pos = rng.randrange(len(stacks[i]))
                stacks[i].insert(pos, rng.choice(m.alphabets[i]))
            bigger = Configuration(s.state, tuple(tuple(stack) for stack in stacks))
            assert bf_higman_leq(s, bigger)
            final = replay(m, w)
            peak = max(c.size for c in trace(m, w))
            v = reach_config(
                m, bigger, final,
                OracleBudget(max_config_size=peak + bigger.size - s.size + 4, max_explored=500_000),
            )
            assert v.reachable, f"{bigger} should reach {final} on {m.rules}"
            done += 1


class TestCriterion12Separator:
    def test_toy_unreachable_with_certificate(self):
        a = StackSymbol("A", 0)
        b = StackSymbol("B", 1)
        m = Mpda(("q",), ((a,), (b,)), ())
        L = singleton(m, Configuration("q", ((a,), ())))
        K = singleton(m, Configuration("q", ((), (b,))))
        started = time.perf_counter()
        res = decide_separator(m, L, K)
        assert time.perf_counter() - started < 60.0
        assert res.status == "unreachable"
        assert check_separator(m, L, K, res.certificate) is None

    def test_nonreg_forward_reachable_in_one_step(self):
        inst = nonreg_forward()
        res = decide_separator(inst.mpda, singleton(inst.mpda, inst.source), inst.target)
        assert res.status == "reachable"
        assert len(res.witness.steps) == 1


class TestCriterion13NonregForwardSet:
    def test_balance_law_up_to_size_5(self):
        inst = nonreg_forward()
        m = inst.mpda
        x, a, b = m.symbol("X"), m.symbol("A"), m.symbol("B")
        budget = OracleBudget(max_config_size=14, max_explored=200_000)
        for k in range(6):
            for l in range(6 - k):
                with_x = Configuration("q", ((x,) + (a,) * k, (b,) * l))
                v = reach_config(m, inst.source, with_x, budget)
                assert v.reachable == (k >= l), (k, l)
                without_x = Configuration("q", ((a,) * k, (b,) * l))
                v = reach_config(m, inst.source, without_x, budget)
                assert v.reachable, (k, l)


class TestCriterion14RoundTrip:
    def fixtures(self):
        g1 = parse_grammar("terminals: a b\nnonterminals: S T\nstart: S\nS -> a T\nT -> b")
        g2 = parse_grammar("terminals: a b\nnonterminals: U\nstart: U\nU -> a U\nU -> b")
        return (anbncn(), expo(4), nonreg_forward(), cfg_intersection(g1, g2))

    def test_fixture_machines_and_sets(self):
        for inst in self.fixtures():
            m2 = formats.parse_mpda(formats.serialize_mpda(inst.mpda))
            assert m2 == inst.mpda
            text = formats.serialize_regset(inst.target)
            again = formats.parse_regset(text, inst.mpda)
            assert formats.serialize_regset(again) == text
            src_text = formats.serialize_configuration(inst.source)
            assert formats.parse_configuration(src_text, inst.mpda) == inst.source

    def test_100_random_instances(self):
        rng = random.Random(1400)
        for _ in range(100):
            m = random_weak_mpda(rng)
            assert formats.parse_mpda(formats.serialize_mpda(m)) == m
            c = random_configuration(rng, m, 4)
            assert formats.parse_configuration(formats.serialize_configuration(c), m) == c
            w = random_walk(rng, m, c, 4)
            assert formats.parse_witness(formats.serialize_witness(w), m) == w
            L = random_regset(rng, m)
            text = formats.serialize_regset(L)
            again = formats.parse_regset(text, m)
            assert formats.serialize_regset(again) == text
            for probe in all_configurations(m, 3):
                assert member(again, probe) == member(L, probe)
