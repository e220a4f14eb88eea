"""Golden digests of CLI search results.

Each search below was run once and the sha256 of every per-seed result JSON,
with the "timing" section removed and keys sorted, was recorded here. A
refactor of the search loop or of the CLI must reproduce them exactly.

The proxy-mode search hashes only its discrete fields (architectures,
births, admission indices, population contents, validity flags and counts):
the Jacobian scores depend on BLAS summation order and may move in their
last bits on another machine, which the z checks of the benchmark cover
with a relative tolerance instead.
"""

import hashlib
import json

import pytest

from gea_nas.experiment_cli import main

SEEDS = (0, 1, 2)

RUNS = {
    "gea_oracle": ("--method", "gea", "--mode", "oracle", "--C", "60"),
    "gea_mock": ("--method", "gea", "--mode", "mock", "--rho", "0.7", "--C", "60"),
    "rea": ("--method", "rea", "--C", "60"),
    "rs": ("--method", "rs", "--C", "60"),
    "gea_proxy": ("--method", "gea", "--mode", "proxy", "--C", "20"),
}

GOLDEN = {
    "gea_oracle": (
        "a633b8aba9bb9a47f68d3447d051abf63c5ac5e9b6d61c62adf185646ad74318",
        "9c1d86a2707d62c57ade29f85850818565cafec820402d0c7b9fc0a47da41b00",
        "dd3865efab1975d85bad7eae6ac78d8aa55404aa9d422b08438371601b78fb18",
    ),
    "gea_mock": (
        "aaa79a641819ce896bbfd89b347c3b1eb4fb2029b74c45e520f985178d9c1839",
        "9d20d7184101ca1eadf97bcce1da2644adb9d8ddaf0bbf04680a544ec37f8276",
        "ccaa00689684cc33aae61b9c71565ceabb6b41470700912bb8f9aa81c5ed7e4a",
    ),
    "rea": (
        "9bf9db0cecf4610343a91d203a690327101d5c8e2d99b78b01322bcd86415872",
        "27a60dcf07cf7af1807aaf019fb3da0f9d897365f9c0aa57302ac9012f1ace4e",
        "b13b0b556103841e9df5d30258accd9bed90df392a226e8645bca61233ca6b38",
    ),
    "rs": (
        "611704d3b75a4672624ea717ddf09d72035ef321369c9322d94d6858e2d437d9",
        "e8b3aef7d75b7cf7b31e1b9b33b7f406e27092fd01682823f9735dcf988b4d5a",
        "44c3b333ff3d4c7864f674560a0cdf852ff116a6341c377a06610b34ed3e4ae9",
    ),
    "gea_proxy": (
        "7bfe53363693ac566d3ba84069dad6f145f3e289485fed34a3e920c850a12a5d",
        "b6c46cc1b46f2abec23e7efc7dd4d9998c2ae7ec4a036a363e3681833b9b70e0",
        "8dc329b49696b62796c00eb4c07196c9db233fb0e2fae86e87c8b50b75266550",
    ),
}


def discrete_fields(doc: dict) -> dict:
    """The parts of a result that do not depend on floating-point proxy values."""
    def model(m):
        return {"arch": m["arch"], "birth": m["birth"], "proxy_valid": m["proxy_valid"]}

    return {
        "method": doc["method"],
        "config": doc["config"],
        "history": [model(m) for m in doc["history"]],
        "cycles": [{"parent_birth": c["parent_birth"], "parent_arch": c["parent_arch"],
                    "children": [{"arch": ch["arch"], "valid": ch["valid"]}
                                 for ch in c["children"]],
                    "admitted_index": c["admitted_index"],
                    "population_births": c["population_births"]} for c in doc["cycles"]],
        "best": model(doc["best"]),
        "num_proxy_evals": doc["num_proxy_evals"],
        "num_fitness_evals": doc["num_fitness_evals"],
    }


def digest(doc: dict, run: str) -> str:
    doc = {k: v for k, v in doc.items() if k != "timing"}
    if run == "gea_proxy":
        doc = discrete_fields(doc)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_search_results_match_golden_digests(run, tmp_path):
    argv = ["search", *RUNS[run], "--P", "5", "--S", "2",
            "--seeds", ",".join(map(str, SEEDS)), "--out", str(tmp_path)]
    assert main(argv) == 0
    method = RUNS[run][1]
    got = tuple(digest(json.loads((tmp_path / f"{method}_seed{s}.json").read_text()), run)
                for s in SEEDS)
    assert got == GOLDEN[run]
