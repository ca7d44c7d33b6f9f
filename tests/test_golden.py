"""SHA-256 goldens of metrics.csv and clusters.csv: every preset and protocol
at seeds 1 and 2, rounds capped so the whole module runs in a few seconds.

Every run includes deaths, so the dead-node paths (skipped draws, joining and
pricing over the survivors) are pinned as well: ch2-scenario2 loses nodes from
round 1, and on the 100-node presets a few nodes start nearly drained. Any
change to these digests changes the bytes a run writes; re-pin only with a
stated reason.

The whole ch2-scenario1 lifetimes that the acceptance criteria read are
pinned here too, by their metrics.csv alone; they run once per session.
"""
import hashlib
from dataclasses import replace

import pytest

from conftest import preset_config, scenario1_lifetime
from fuzzcluster.config import PROTOCOL_NAMES
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
    cfg = preset_config(preset, PROTOCOL_NAMES[protocol], seed=seed, max_rounds=ROUNDS[preset])
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


# metrics.csv of each whole ch2-scenario1 lifetime in scenario1_lifetime
LIFETIME_GOLDEN = {
    ("leach", 1): "8a0b9699ca46deac0e2fecf19245b125effaaa84292ac1352004f62b445676f9",
    ("leach", 2): "cc0f6cb8ed4dde44dc6f428f6b8b99ffbefb28bc78eb1aaea2cae700dfa57362",
    ("leach", 3): "d99f77118fb287d687fc63d23fb051ca6ea906aeae30043b855b6c79106229a8",
    ("leach", 4): "f2447d71e466047d2b322029d9d4891e067a56554bc639c1ec3f3e25bb293eca",
    ("leach", 5): "e46e5a55f8833e5c94549224e66e1ba46ef277df58df7feb46185eef2d2958a8",
    ("leach", 6): "c8e86b625113b6a37cfcb094f81a32666d7177d1cfd146e0f89b7e041434c1d1",
    ("leach", 7): "a71751c6d7fd33883aad811efc3116fb5b478358f5453186f6c54914290778a5",
    ("leach", 8): "7272b8bbfdfa832b24ce966c2f2d2b1a56201c7ae09d227e0ce7f1b19630f8f7",
    ("leach", 9): "4884249be3e1d891fb4f600416ef2b198f9c86a95f20f033c5ed794b44f13fa0",
    ("leach", 10): "ce7190d5e69a4a8e127b41c9246373197a623bc7c5d867af63a3e44fd6476103",
    ("fuzzy_unequal", 1): "a3bd1b470c9ee2d105ff7c7d16d29302cea2ea1150870d5ed4caec3d53819ecc",
    ("fuzzy_unequal", 2): "fd05d2809b93c44096abe77200daf94b9ad851c0d0bab5a012240e6dfa12f203",
    ("fuzzy_unequal", 3): "58b54a0ef073fbbf4ad93ac540399f0db9c93c747e690132b9566ab750e277e7",
    ("fuzzy_unequal", 4): "e18bf0e483d779d362b48d54b9b4f9539f3a4479f65ec10deb4fe49ad5a343d6",
    ("fuzzy_unequal", 5): "7dbfebf5e9965feba96d353942d802d553a73ac7a161dedae41b00467a9cb6fa",
    ("fuzzy_unequal", 6): "a943f2cd63e0b2762e1169ff119566757a192fa7fcdeb13244444ac4e26bbfa1",
    ("fuzzy_unequal", 7): "9f003671e9840f041ff7f379994e6def4722d0bb238e25f77a4ca11e24cb06c1",
    ("fuzzy_unequal", 8): "47580fd137bb42497d5e5bc9f08b9badb6f9f4a945fee2e037b1f734a5595f40",
    ("fuzzy_unequal", 9): "0ec4953057081a75a1c183b45d769fa6f81c512e27b358ff6b39b67bac9364af",
    ("fuzzy_unequal", 10): "f5b7b88792d96f1b5d50a85fb9340b980b658a0dc0ec128e5f23e417ae0f015e",
    ("type2fl", 1): "5db54e923fe74974b67972b3140fff1d227ee370fb18bf75664b540de0b139e7",
    ("type2fl", 2): "671d9fa23673949494eabb32f0ffb075990ec693e3c1b6593848e27ba866c818",
    ("type2fl", 3): "132e145ba287b3a54dfd17d879d42d556459637a9ddebe46c92b425b77f8fe05",
    ("type2fl", 4): "5a5acbcb070cc2b761df614fad70f4d9f1bfe332888b4b50b8502ecf4bc0a91c",
    ("type2fl", 5): "113f55ef5cceaa43816587220e7ac09036ca1a9c4912dace2d254df3051bc22e",
}


@pytest.mark.parametrize("kind,seed", sorted(LIFETIME_GOLDEN))
def test_whole_lifetimes_match_golden_digests(tmp_path, kind, seed):
    """What these pins add to the goldens above is the dying phase: the
    40-round runs end before most nodes die, and these run through every
    death to the last. A change in the last bit of one cost can move a whole
    lifetime and still leave every 40-round golden as it was. Like the
    goldens, they hold only where libm pow gives the same bits beyond d0;
    a change of that form must re-pin them with the goldens. They read the
    shared lifetimes and run nothing of their own."""
    write_metrics_csv(scenario1_lifetime(kind, seed), tmp_path / "metrics.csv")
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == LIFETIME_GOLDEN[(kind, seed)]
