import pytest

from parklike import Generator, SpeciesEnv, parse_species


@pytest.fixture
def env():
    return SpeciesEnv.standard()


@pytest.fixture
def gen(env):
    return Generator(env)


@pytest.fixture
def defined():
    """The standard environment plus definitions written NAME:=EXPR."""

    def env_of(*definitions):
        env = SpeciesEnv.standard()
        names = [d.partition(":=")[0] for d in definitions]
        for d in definitions:
            name, _, body = d.partition(":=")
            env.bind(name, parse_species(body, env, extra_names=names))
        return env

    return env_of
