import pytest

from ellfm import (
    DEFAULT_ENTRY,
    BasePoint,
    EllipticSurface,
    KodairaFiber,
    MarkedConfig,
    Provenance,
    UnknownEntryError,
    catalog_get,
    catalog_list,
    catalog_names,
    rigidity_check,
    validate_config,
)


class TestEntries:
    def test_every_shipped_entry_validates(self):
        for entry in catalog_list():
            assert validate_config(entry.config)
            assert entry.surface.has_section

    def test_default_entry(self):
        entry = catalog_get(DEFAULT_ENTRY)
        assert entry.provenance is Provenance.CITED
        assert entry.config.euler_number == 12
        tokens = [fiber.token() for _, fiber in entry.config]
        assert tokens == ["III*", "I(2)", "I(1)"]
        assert [str(p) for p, _ in entry.config] == ["0", "1", "inf"]

    def test_default_entry_is_rigid(self):
        assert rigidity_check(catalog_get(DEFAULT_ENTRY).config).rigid

    def test_twelve_i1(self):
        entry = catalog_get("twelve-I1")
        assert len(entry.config) == 12
        assert entry.config.euler_number == 12
        assert entry.provenance is Provenance.EULER_CHECKED
        # 0..11 in arithmetic progression: z -> 11 - z is a symmetry
        report = rigidity_check(entry.config)
        assert not report.rigid
        assert report.order == 2

    def test_each_entry_builds_its_surface_once(self, monkeypatch):
        for name in catalog_names():
            surface = catalog_get(name).surface
            builds = []
            monkeypatch.setattr(EllipticSurface, "__post_init__", lambda self: builds.append(self))
            assert catalog_get(name).surface is surface and builds == []
            monkeypatch.undo()
            assert surface.name == name and surface.has_section and surface.config is catalog_get(name).config

    def test_other_entries_eulers(self):
        assert catalog_get("II*-I1-I1").config.euler_number == 10 + 1 + 1
        assert catalog_get("IV*-IV").config.euler_number == 8 + 4

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryError):
            catalog_get("no-such-entry")

    def test_names_listing(self):
        names = catalog_names()
        assert DEFAULT_ENTRY in names
        assert len(names) == len(catalog_list())


class TestValidation:
    def test_euler_sum_eighteen_fails(self):
        config = MarkedConfig(
            [
                (BasePoint(0), KodairaFiber.from_token("III*")),
                (BasePoint(1), KodairaFiber.from_token("III*")),
            ]
        )
        assert not validate_config(config)

    def test_empty_config_fails(self):
        assert not validate_config(MarkedConfig())

    def test_multiple_fiber_fails(self):
        config = MarkedConfig(
            [
                (BasePoint(0), KodairaFiber.from_token("III*")),
                (BasePoint(1), KodairaFiber.from_token("I(2)")),
                (BasePoint(2), KodairaFiber.from_token("I(1)")),
                (BasePoint(3), KodairaFiber.from_token("smooth", 5)),
            ]
        )
        assert not validate_config(config)
