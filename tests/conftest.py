import pytest

from gensim.algebra import self_pair, validate_pair
from gensim.corpus import load_fixture, load_merge_map, powerset_algebra


@pytest.fixture(scope="session")
def chain5():
    return load_fixture("chain5.alg")


@pytest.fixture(scope="session")
def chain4_a():
    return load_fixture("chain4_a.alg")


@pytest.fixture(scope="session")
def chain4_b():
    return load_fixture("chain4_b.alg")


@pytest.fixture(scope="session")
def nat_sink():
    return load_fixture("nat_sink7.alg")


@pytest.fixture(scope="session")
def triple_a():
    return load_fixture("triple_a.alg")


@pytest.fixture(scope="session")
def triple_b():
    return load_fixture("triple_b.alg")


@pytest.fixture(scope="session")
def triple_c():
    return load_fixture("triple_c.alg")


@pytest.fixture(scope="session")
def triple_d():
    return load_fixture("triple_d.alg")


@pytest.fixture(scope="session")
def merge_src():
    return load_fixture("merge_src.alg")


@pytest.fixture(scope="session")
def merge_tgt():
    return load_fixture("merge_tgt.alg")


@pytest.fixture(scope="session")
def merge_map():
    return load_merge_map()


@pytest.fixture(scope="session")
def unary_fg():
    return load_fixture("unary_fg.alg")


@pytest.fixture(scope="session")
def powerset3():
    return powerset_algebra(("1", "2", "3"))


@pytest.fixture(scope="session")
def chain5_pair(chain5):
    return self_pair(chain5)


@pytest.fixture(scope="session")
def chain4_pair(chain4_a, chain4_b):
    return validate_pair(chain4_a, chain4_b)


@pytest.fixture
def engine_builds(monkeypatch):
    """The pairs of the closures run (``similarity.build_engine`` calls) and
    of the ``Engine`` objects made, transposed reverse engines included."""
    from gensim import similarity

    closures, engines = [], []
    build, init = similarity.build_engine, similarity.Engine.__init__

    def counted_build(pair, config=None, stop=None):
        closures.append(pair)
        return build(pair, config, stop)

    def counted_init(self, pair, label, rows, masks=None):
        engines.append(pair)
        init(self, pair, label, rows, masks)

    monkeypatch.setattr(similarity, "build_engine", counted_build)
    monkeypatch.setattr(similarity.Engine, "__init__", counted_init)
    return closures, engines
