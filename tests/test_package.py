import helmdd


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from helmdd import *", namespace)
    assert sorted(helmdd.__all__) == sorted(set(helmdd.__all__))
    for name in helmdd.__all__:
        assert namespace[name] is getattr(helmdd, name)
