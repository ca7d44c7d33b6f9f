"""SHA-256 goldens of metrics.csv and clusters.csv: every preset and protocol
at seeds 1 and 2, rounds capped so the whole module runs in a few seconds.

Every run includes deaths, so the dead-node paths (skipped draws, joining and
pricing over the survivors) are pinned as well: ch2-scenario2 loses nodes from
round 1, and on the 100-node presets a few nodes start nearly drained. Any
change to these digests changes the bytes a run writes; re-pin only with a
stated reason.
"""
import hashlib
from dataclasses import replace

import pytest

from fuzzcluster.config import PROTOCOL_NAMES, parse_config
from fuzzcluster.csvio import write_clusters_csv, write_metrics_csv
from fuzzcluster.simulator import run_simulation

ROUNDS = {"ch2-scenario1": 40, "ch2-scenario2": 4, "ch3": 40}
# die in round 1, after a few rounds, and near the end of the capped run
WEAK_NODES = {3: 1e-6, 17: 2e-3, 42: 1e-2}

GOLDEN = {
    ("ch2-scenario1", "leach", 1): ("638afdc935976726f59a9cee360b22231e5131502540d841dd328ec0d5abfdcf", "b79f52a6635933429a849f75981f071c269aad5248117c3c80c21d1e0256cbb9"),
    ("ch2-scenario1", "leach", 2): ("9f84881d2e698b747f005b4885163c7661c597766788d8018a2e2b82a520b95d", "a9ce7762d98e644ffe6f125b7f90869298b3ef412af550d58144a510b5e95b28"),
    ("ch2-scenario1", "fuzzy-unequal", 1): ("d0e9fe66073733937d96799bae1669e44262153e063860e425b5b30e76b14ff0", "c4933847ad94036ccf0b299960b60d4e2efaf8675c6d2065a0e95fa191e306b4"),
    ("ch2-scenario1", "fuzzy-unequal", 2): ("a1508fb412483925ad50d485bd98d5831711f0895ce84c13e57f165c38e0fb61", "836bd23bc317e1e3b0ffeef3ddab5981266488d93cc6f73867fbd0f0ba41a899"),
    ("ch2-scenario1", "type2fl", 1): ("737b2eaac8346beeb705b985816fc9347c0b9a9f7cffc525cb4a466817aa4659", "be19b061116dc262e499a0c87f5fdad721e9bbd6a6a2de072b5ae5d26f05df3c"),
    ("ch2-scenario1", "type2fl", 2): ("735f86b4114c3d2ad401e672fe38ff02fda5c10cd30b810da1739089b4740213", "67c8a95943e32bd07987180261610d27a0b4ccca085b62e7553c83c102238889"),
    ("ch2-scenario2", "leach", 1): ("20f7736694c1a375c185b579efdd044dbd8a09ea565b1e5bc21bd3a3e2a41b1a", "d3b9d43b20144bf7966866ffacf2a4e8134216b71b817dcff00a7ddc923f2527"),
    ("ch2-scenario2", "leach", 2): ("72e3b19dd380ddf75d70c94966e57b55049745760410e9c3c7e79fdac13c233c", "0d0ba88a19d0bb9ec24559387375e148fb59c86640e3ef7ce135841bf2d4d2f9"),
    ("ch2-scenario2", "fuzzy-unequal", 1): ("8fb292dc273669361f025875b098ed64b14c949bf0651e41e51a557ef17d04bd", "1d76455af298718b5967d1ede31f78545e101eb0ebdc879d2a8d567b77bcccf4"),
    ("ch2-scenario2", "fuzzy-unequal", 2): ("87a8a058e475525134f5477a52e227798e2494bf561c5882e1045492d5db4d5c", "34fa8757ad7b6579cbfab7d9debc1541cf483e8e01fa0d832d46c163ead93c75"),
    ("ch2-scenario2", "type2fl", 1): ("658992696a472bd69f8ac659f8301cbca2313e4ace7641458b8d07d6daeb5be2", "9b8d6d73f4ffeaa013ae662b843477b446b63915ebdb4ba104571e9ee70b5189"),
    ("ch2-scenario2", "type2fl", 2): ("242521df672292e22fbf59c0a8d9450f626fb46cb6783d04050dd7e299577b56", "9850acd40a1c4c0e89a465ddc7c0bd8dc8094f356b1478c718da516fca471eb3"),
    ("ch3", "leach", 1): ("abc7cee0197644eba41acfc80062dc863df236644a827030bf82dc18fc32d006", "424078ffee3390d9e8857189cbaca7b809ab09761dacb03f29240b879db549b9"),
    ("ch3", "leach", 2): ("9cfe67eb1ce7a1cccf132f36069ac82a88f504027f90208a0a4a425b6917038a", "a9ce7762d98e644ffe6f125b7f90869298b3ef412af550d58144a510b5e95b28"),
    ("ch3", "fuzzy-unequal", 1): ("e56577c96871a9342295ec94aba49f59b922db24b6a73f3f10779926aba1235f", "37ecdaece56910277fe982a598ebe6539020eb6ba28dcad8f6d0151325ebcdf8"),
    ("ch3", "fuzzy-unequal", 2): ("69cf03659fae6f636d499c3881be712ecabe869c187515a689e6989c19438efe", "1911c3414ff42722056cedf6ed9459b919003e8ee8cc0a9a85d3e8cc0421b12c"),
    ("ch3", "type2fl", 1): ("f228aed711e4177eb1ef8624a0e7b3b20325453e1c18af6a7479e483a2f4d678", "5209c0cf101019c58062f1410ab41b320bc91c108bd647eba689fd3971f20a7f"),
    ("ch3", "type2fl", 2): ("06af34175751280e79a6e779514c5237cd84bc127716e31ac1aed2542e1f7e81", "da881a7c01b2880bf40b540a8cd5bf89483685d96af085b5fce3586dd04c390a"),
}


@pytest.mark.parametrize("preset,protocol,seed", sorted(GOLDEN))
def test_outputs_match_golden_digests(tmp_path, preset, protocol, seed):
    cfg = parse_config(preset)
    cfg = replace(
        cfg,
        protocol=replace(cfg.protocol, kind=PROTOCOL_NAMES[protocol]),
        seed=seed,
        max_rounds=ROUNDS[preset],
    )
    if cfg.n == 100:
        cfg = replace(cfg, energy_overrides=WEAK_NODES)
    result = write_clusters_csv(
        lambda on_round: run_simulation(cfg, on_round=on_round), tmp_path / "clusters.csv"
    )
    assert result.fnd is not None
    write_metrics_csv(result, tmp_path / "metrics.csv")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "clusters.csv")
    )
    assert digests == GOLDEN[(preset, protocol, seed)]
