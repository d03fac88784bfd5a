"""Config file checks: located parse errors, preset overlay, canonical round trip."""

import hashlib
from dataclasses import replace

import pytest

from latinpgd import cli
from latinpgd.config import canonical, parse_config, preset, read_sections


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# (file body, line of the fault, words the message must carry)
MALFORMED = {
    "unknown_section": ("[mesh]\nd1 = 8.0\n\n[loads]\n", 4, "unknown section [loads]"),
    "unknown_key": ("[mesh]\nd1 = 8.0\nlength = 8.0\n", 3, "unknown key 'length'"),
    "duplicate_key": ("# beam\n[solver]\nN_T = 10\nN_T = 20\n", 4, "duplicate key 'N_T'"),
    "bad_value": ("[solver]\nN_T = 10\nseed = 1.5\n", 3, "bad value for seed"),
    "key_outside_section": ("\nd1 = 8.0\n[mesh]\n", 2, "outside of any [section]"),
    "empty_amplitudes": ("[load]\nT = 2.0\namplitudes =\n", 3,
                         "bad value for amplitudes"),
    "overflowing_int": ("[mesh]\nnx = 1e400\n", 2, "bad value for nx"),
    "int_beyond_64_bits": ("[solver]\nseed = 1e19\n", 2, "expected a 64-bit integer"),
    "infinite_float": ("[material]\nE = inf\n", 2, "bad value for E: expected a finite"),
    "negative_infinity": ("[material]\nY0 = -inf\n", 2, "bad value for Y0"),
    "nan_float": ("[solver]\nxi_stop = nan\n", 2, "bad value for xi_stop"),
    "nan_horizon": ("[load]\n\nT = NaN\n", 3, "bad value for T"),
    "nan_in_a_list": ("[load]\namplitudes = 0.01, nan\n", 2,
                      "bad value for amplitudes"),
    "line_without_equals": ("[mesh]\nd1 8.0\n", 2,
                            "expected 'key = value' or '[section]', got 'd1 8.0'"),
    "on_off_key_given_a_word": ("[solver]\ndamping = maybe\n", 2,
                                "bad value for damping: expected on/off, got 'maybe'"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_read_error_names_file_and_line(tmp_path, case):
    body, line, words = MALFORMED[case]
    path = write(tmp_path, body)
    with pytest.raises(ValueError) as info:
        read_sections(path)
    message = str(info.value)
    assert message.startswith("%s:%d:" % (path, line))
    assert words in message


def test_non_finite_value_exits_2_through_the_cli(tmp_path, capsys):
    path = write(tmp_path, "[load]\nT = nan\n")
    out = tmp_path / "out"
    code = cli.main(["run-newmark", "--preset", "elastic", "--config", path,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "%s:2: bad value for T: expected a finite number" % path in capsys.readouterr().err
    assert not out.exists()


# (section, field, value): what code that builds or replaces the dataclasses
# may pass, past the file readers' checks.  MaterialParams has its own test.
NON_FINITE = [(section, field, value)
              for section, field in [("mesh", "d1"), ("mesh", "d3"), ("mesh", "nx"),
                                     ("load", "T"), ("solver", "N_T"),
                                     ("solver", "xi_stop"), ("solver", "zeta_stop"),
                                     ("solver", "omega"), ("solver", "max_modes"),
                                     ("solver", "newmark_tol")]
              for value in (float("nan"), float("inf"))]


@pytest.mark.parametrize("section,field,value", NON_FINITE)
def test_constructors_reject_non_finite_values(section, field, value):
    part = getattr(preset("mono_sine"), section)
    with pytest.raises(ValueError, match=field):
        replace(part, **{field: value})


# Counts that are not integers: the file readers refuse them, code may not.
FRACTIONAL = [("mesh", "nx"), ("mesh", "ny"), ("mesh", "nz"),
              ("solver", "N_T"), ("solver", "max_modes")]


@pytest.mark.parametrize("section,field", FRACTIONAL)
def test_constructors_reject_a_fractional_count(section, field):
    part = getattr(preset("mono_sine"), section)
    with pytest.raises(ValueError, match=r"%s must be .*integer.*, got 1\.5$" % field):
        replace(part, **{field: 1.5})


# (field, value, words the message must carry): one load rule, `LoadCase`'s,
# which names the bad entry.
BAD_LOAD = {
    "nan_amplitude": ("amplitudes", (float("nan"),), "amplitudes[0] must be finite, got nan"),
    "inf_amplitude": ("amplitudes", (float("inf"),), "amplitudes[0] must be finite, got inf"),
    "inf_frequency": ("frequencies", (float("inf"),),
                      "frequencies[0] must be finite and positive, got inf"),
    "zero_frequency": ("frequencies", (0.0,),
                       "frequencies[0] must be finite and positive, got 0"),
    "negative_frequency": ("frequencies", (-3.0,),
                           "frequencies[0] must be finite and positive, got -3"),
    "no_frequency": ("frequencies", (), "non-empty matching 1d lists"),
    "extra_frequency": ("frequencies", (3.0, 4.0), "non-empty matching 1d lists"),
}


@pytest.mark.parametrize("case", list(BAD_LOAD))
def test_load_config_names_the_bad_entry(case):
    field, value, words = BAD_LOAD[case]
    with pytest.raises(ValueError) as info:
        replace(preset("mono_sine").load, **{field: value})
    assert words in str(info.value)


def test_bad_frequency_exits_2_through_the_cli(tmp_path, capsys):
    path = write(tmp_path, "[load]\nfrequencies = -3\n")
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--preset", "mono_sine", "--config", path,
                     "--out-dir", str(out)])
    assert code == cli.EXIT_INPUT
    assert "frequencies[0] must be finite and positive, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_missing_mandatory_section_is_named(tmp_path):
    blocks = canonical(preset("elastic")).split("\n\n")
    text = "\n\n".join(b for b in blocks if not b.startswith("[solver]"))
    with pytest.raises(ValueError, match=r"missing mandatory sections: \[solver\]"):
        parse_config(write(tmp_path, text))


def test_overlay_changes_only_the_given_keys(tmp_path):
    base = preset("mono_sine")
    path = write(tmp_path, "[material]\nY0 = 200\n\n[solver]\nN_T = 50\n"
                           "damping = off\n\n[output]\nsnapshots = 0.5, 1.5\n")
    got = parse_config(path, base=base)
    want = replace(base,
                   material=replace(base.material, Y0=200.0),
                   solver=replace(base.solver, N_T=50, damping=False),
                   output=replace(base.output, snapshots=(0.5, 1.5)))
    assert got == want
    assert got.mesh is base.mesh and got.load is base.load


def test_overlay_validates_the_merged_section(tmp_path):
    path = write(tmp_path, "[solver]\nomega = 1.5\n")
    with pytest.raises(ValueError, match="omega") as info:
        parse_config(path, base=preset("mono_sine"))
    assert str(info.value) == "%s: [solver]: omega must lie in (0, 1], got 1.5" % path


@pytest.mark.parametrize("standalone", [False, True])
def test_a_section_error_names_the_file_the_section_and_the_value(tmp_path, standalone):
    # the Hooke tensor's rule checks nu, wherever the section is built
    text = "[material]\nnu = 0.7\n"
    if standalone:
        text = canonical(preset("mono_sine")).replace("\nnu = 0.20000000000000001\n",
                                                      "\nnu = 0.7\n")
        assert "nu = 0.7" in text
    path = write(tmp_path, text)
    with pytest.raises(ValueError) as info:
        parse_config(path, base=None if standalone else preset("mono_sine"))
    assert str(info.value) == ("%s: [material]: Poisson ratio must lie in (-1, 0.5), got 0.7"
                               % path)


def test_a_standalone_section_that_lacks_a_key_is_incomplete(tmp_path):
    text = canonical(preset("elastic")).replace("nz = 2\n", "")
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=r"section \[mesh\] is incomplete: .*'nz'") as info:
        parse_config(path)
    assert str(info.value).startswith("%s: " % path)


def test_an_odd_nz_is_refused_when_the_config_is_read(tmp_path):
    # the mesh's own box rule, so the config never accepts what it cannot mesh
    path = write(tmp_path, "[mesh]\nnz = 3\n")
    with pytest.raises(ValueError) as info:
        parse_config(path, base=preset("mono_sine"))
    message = str(info.value)
    assert message.startswith("%s: [mesh]: the line supports need an even nz" % path)
    assert message.endswith("got nz = 3")


@pytest.mark.parametrize("name", ["elastic", "mono_sine", "multi_sine"])
def test_canonical_round_trip(tmp_path, name):
    conf = preset(name)
    back = parse_config(write(tmp_path, canonical(conf)))
    assert back == conf
    assert canonical(back) == canonical(conf)


def test_snapshot_outside_the_horizon_is_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"snapshots must lie in \[0, T\] = \[0, 0.5\]"):
        parse_config(write(tmp_path, "[load]\nT = 0.5\n[output]\nsnapshots = 0.25, 3.0\n"),
                     base=preset("mono_sine"))
    with pytest.raises(ValueError, match="snapshots .* got -1"):
        parse_config(write(tmp_path, "[output]\nsnapshots = -1.0\n"),
                     base=preset("mono_sine"))
    # the overlay is checked once merged, whatever the section order
    conf = parse_config(write(tmp_path, "[output]\nsnapshots = 2.5\n[load]\nT = 3.0\n"),
                        base=preset("mono_sine"))
    assert conf.output.snapshots == (2.5,) and conf.load.T == 3.0


def late_config(tmp_path, standalone):
    """A file whose [load] T = 0.5 ends before its [output] snapshot at 3.0,
    as an overlay on `mono_sine` or standing alone."""
    text = "[load]\nT = 0.5\n[output]\nsnapshots = 3.0\n"
    if standalone:
        text = canonical(preset("mono_sine")).replace("\nT = 2\n", "\nT = 0.5\n")
        text = text.replace("\nsnapshots = \n", "\nsnapshots = 3.0\n")
        assert "T = 0.5" in text and "snapshots = 3.0" in text
    return write(tmp_path, text), None if standalone else preset("mono_sine")


CROSS_SECTION = "[load], [output]: snapshots must lie in [0, T] = [0, 0.5], got 3"


@pytest.mark.parametrize("standalone", [False, True])
def test_an_error_across_sections_names_the_file_and_both_sections(tmp_path, standalone):
    path, base = late_config(tmp_path, standalone)
    with pytest.raises(ValueError) as info:
        parse_config(path, base=base)
    assert str(info.value) == "%s: %s" % (path, CROSS_SECTION)


@pytest.mark.parametrize("standalone", [False, True])
def test_an_error_across_sections_exits_2_through_the_cli(tmp_path, capsys, standalone):
    path, base = late_config(tmp_path, standalone)
    out = tmp_path / "out"
    code = cli.main(["run-latin", "--config", path, "--out-dir", str(out)]
                    + ([] if standalone else ["--preset", "mono_sine"]))
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: %s: %s" % (path, CROSS_SECTION))
    assert not out.exists()


def test_empty_snapshot_list_is_the_empty_tuple(tmp_path):
    # a tuple key may be empty exactly when its default is ()
    sections = read_sections(write(tmp_path, "[output]\nsnapshots =\n"))
    assert sections == {"output": {"snapshots": ()}}


# sha256 of each preset's canonical text: the config hash every run
# manifest and benchmark record carries.
PRESET_SHA256 = {
    "elastic": "356a208a3dff7f57f1a9c10bcdc8c46c8a5649a609d79883e4ae576502895db0",
    "mono_sine": "51d2a965ed958a7a6f391c1f6dd1887259f4849a7670df2afab7a94c017dad4d",
    "multi_sine": "eab8fe49e0aabb2018a97ddb0d1d846192a364e2aa0cee77e6f2ea90433030f8",
}


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_canonical_text_of_each_preset_is_pinned(name):
    text = canonical(preset(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[name]
