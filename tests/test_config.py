"""Config file checks: located parse errors, preset overlay, canonical round trip."""

import hashlib
from dataclasses import replace

import pytest

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
    with pytest.raises(ValueError, match="omega"):
        parse_config(write(tmp_path, "[solver]\nomega = 1.5\n"),
                     base=preset("mono_sine"))


@pytest.mark.parametrize("name", ["elastic", "mono_sine", "multi_sine"])
def test_canonical_round_trip(tmp_path, name):
    conf = preset(name)
    back = parse_config(write(tmp_path, canonical(conf)))
    assert back == conf
    assert canonical(back) == canonical(conf)


def test_empty_snapshot_list_is_the_empty_tuple(tmp_path):
    # a tuple key may be empty exactly when its default is ()
    sections = read_sections(write(tmp_path, "[output]\nsnapshots =\n"))
    assert sections == {"output": {"snapshots": ()}}


# sha256 of each preset's canonical text: the config hash every run
# manifest and benchmark record carries.
PRESET_SHA256 = {
    "elastic": "356a208a3dff7f57f1a9c10bcdc8c46c8a5649a609d79883e4ae576502895db0",
    "mono_sine": "51d2a965ed958a7a6f391c1f6dd1887259f4849a7670df2afab7a94c017dad4d",
    "multi_sine": "0b4fc3470caa52967245b5e51edaa34433417f692421e87584032330776bd680",
}


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_canonical_text_of_each_preset_is_pinned(name):
    text = canonical(preset(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[name]
