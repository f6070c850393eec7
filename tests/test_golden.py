"""Pinned CSV content hashes for every optimizer on tiny population configs,
pinned bits of meta-training, and pinned bits of the min-norm solve.

The hashes are literal: a change to a run driver, an oracle, the solver or
the tape that moves a single CSV byte (the wall-time column excluded) or a
single trained-parameter bit fails here. When a change moves them on
purpose, it re-pins them and says why.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from moograd import autodiff as ad
from moograd.checks import ML2O_RUN_ALPHA, VALIDATION_PROBLEM_SEED
from moograd.harness import run_experiment
from moograd.minnorm import solve_min_norm
from moograd.ml2o import (
    Ml2oState,
    evaluate_meta_loss,
    init_params,
    init_state,
    load_checkpoint,
    meta_train,
    save_checkpoint,
    store_from_params,
    unroll_window,
)
from moograd.problems import QuadraticPair, make_quadratic_pair
from test_minnorm import SOLUTION_FIELDS, hard_battery

QUADRATIC = {"name": "quadratic_pair", "params": {"dim": 3, "seed": 5, "noise_sigma": 0.2}}
TOY_MTL = {
    "name": "toy_mtl",
    "params": {"seed": 3, "samples": 64, "classes": 3, "batch": 8, "input_dim": 4, "hidden": 5},
}
CHECKPOINT = object()  # replaced by the path of an init_params(2, 4, 0) checkpoint

CASES = {
    "quadratic_pair/mgda": (QUADRATIC, "mgda", {}),
    "quadratic_pair/smg": (QUADRATIC, "smg", {}),
    "quadratic_pair/dssmg": (QUADRATIC, "dssmg", {}),
    "quadratic_pair/moco": (QUADRATIC, "moco", {}),
    "quadratic_pair/composite": (QUADRATIC, "composite", {}),
    "quadratic_pair/sgd": (QUADRATIC, "sgd", {}),
    "quadratic_pair/momentum": (QUADRATIC, "momentum", {}),
    "quadratic_pair/adam": (QUADRATIC, "adam", {}),
    "quadratic_pair/rmsprop": (QUADRATIC, "rmsprop", {}),
    "quadratic_pair/adadelta": (QUADRATIC, "adadelta", {}),
    "quadratic_pair/ml2o": (QUADRATIC, "ml2o", {"checkpoint": CHECKPOINT}),
    "quadratic_pair/gml2o": (QUADRATIC, "gml2o", {"checkpoint": CHECKPOINT}),
    "quadratic_pair/gml2o_det": (QUADRATIC, "gml2o_det", {"checkpoint": CHECKPOINT}),
    "toy_mtl/mgda": (TOY_MTL, "mgda", {}),
    "toy_mtl/dssmg": (TOY_MTL, "dssmg", {}),
    "toy_mtl/ml2o": (TOY_MTL, "ml2o", {"checkpoint": CHECKPOINT}),
    # guard batches of 16 are real subsets of the 64 samples
    "toy_mtl/gml2o": (TOY_MTL, "gml2o", {"checkpoint": CHECKPOINT, "guard_batch": 16}),
}

# seed 1 members 0..2, then seed 2 members 0..2
GOLDEN = {
    "quadratic_pair/adadelta": [
        "50cfcd5b9707f2692acc2c50fecde2e3f4e35469b18715efcc63b6c228422005",
        "6b4c13604ebc41063cb8ca5aeb74e01480df119ce2de40b70f39e3a2f4f5aff7",
        "24137650558fd406ea5038dbd09ff040de96e60774bc51191e8be9b6f63fdfe7",
        "8eb9e78a79870a4b061752cb93bd41429e07fd876bcc73ebcfbc949f39b41d35",
        "2d35bcd2dbcf99f927071b74811e545a011282ec06238bb50a31e597186d9760",
        "3b3cd2895ca3b864aa47610e8c9aa36f9c1a8459ff8f45947a45843cc72958e1",
    ],
    "quadratic_pair/adam": [
        "cf5b81cbfc6bea21a3c8e45f9b0230c3e0ba478fdea62bc63771b15c698b5e84",
        "fead729756d00b1a00e2cf1c64c46fd2bc8fd0e42981ca7048991c4a711cbcbb",
        "d054efbfbd96ca7725529ed6f56d87426846e19a361ca8b028dc2a4ac5080971",
        "37af552b63e329fb372fa1cc441b97d749c151d13c16afa4a6ebd82efd070885",
        "a49f31c1f63102042f9d45f62f76aa8def91bdee81275f31026a51158f4f4ddf",
        "0bf0d80352e40bd52c144cc504ef24810b0fd50dfa637db8bcf1abf920e15f1d",
    ],
    "quadratic_pair/composite": [
        "a1990f2f41a5bdb7943f471c750db608f3e996ab9d537acf3608555140cb0489",
        "96ac1c248332251e197e0d0fda0b7f89657c69af995556a8ed1f581d7f0a80a6",
        "95d7476e3bc33ea1f64828fbf44444dbb4fbf9299fd2d3d28a4af4dd0d473012",
        "e331494892e20099b81f2ad15cba09d5301139d04e05353d7acbaef423993715",
        "e55f919a6eaf7f03a452de308de10532e8cb9c6625ce9306b20c341241fede21",
        "46aab8ba4cf43a702caed55224222d65a57308b37534e58d11d8e768fd8c6f79",
    ],
    "quadratic_pair/dssmg": [
        "baa3268a7466f6c46aad0e88a4c11c1ffec4c441fb3cb2a5f08744f168e24263",
        "7f37943b2f9b70747532c932840d5089f4ca5cef8eced2b53c291c195ebe9178",
        "7a684d91c27f09f63ed825938a1ce1bab27b62521e2e274c2090d7adc9df96f3",
        "7b00166771d8eb4bb4ad30fd6536fcdf18f912290151b1fff550e5ebe939ff9c",
        "e39750a4e4654564264aa5008a7fef79c5ef18fa959192d8ab1fd8c1d3a147b9",
        "26beed088acc516a5a32b21fa2bfe602e1b7d7149e4152a930ffd6b1363a5a7b",
    ],
    "quadratic_pair/gml2o": [
        "5f3a94b45c3cdb3cdc28615f8791bec14693e5bd0820c5c3158c9256a778e550",
        "8eafc1b27b8aec125567d3b2ef368a6545e60765c53ddb8cb17b63f8748d01fd",
        "c4f9ecc4fd407459614d87906256a13241602f3a5daeb20d5027d2b4c6e7372b",
        "bc15642674eaa9e95208db92859b6686c7294bad9548b54c9ab06715115aa2c0",
        "e022cbf1d5a97d375f5f66814f8714a2cc8d769673e6c4a81732bab25149afe0",
        "44892f685b9c5cf0ee9f53a9e91f90a5de4c3aacb798ff25b58acb7d7b372ebf",
    ],
    "quadratic_pair/gml2o_det": [
        "0b7b27a3e6e264fbe99ce62914981e31416d879adea0423b0bbfbb40fbf1fe02",
        "3bd43cd5d3b987c55f45956c341d9b6473410c3ef526875f4fc89a5423d890ad",
        "ef3a6a8ed9b1340264ff325a6ecac6eadb349f6f1f23b1abfcc3d27cc10a2f49",
        "831e64ae99bcb0750b31ff03fa25bb611fd7a043256296b96b949ef8d8ab243b",
        "86a5ccf869074c900720d8a4a1035faae79ca2a33f73b1626e3ebe6b4ca8e5a3",
        "31e008645bc08fa6843ccd8d4c41f05f5b8b8c440e99ff224c8fba445b524ac9",
    ],
    "quadratic_pair/mgda": [
        "c605ec3697b5dba0844e8e858a81ac2a1cea7e083f65b58d295999db6f13525a",
        "83a3cb49d4d5b608baa8ca12a987104852514ae28abf7f6678c13f9f38a6a3e8",
        "8492e444e3723155800a972b68f18993675abf3026e063f56d85a7de8b270a86",
        "f08377edb28fc3c0b43f90350b2a1aa3f27c2f4dd6001b8cea26ed5a4d525156",
        "f0b1d0cecdd8d19f69275fd711ea56a52776f017265fffd1c1005174e00ff8ec",
        "b99759954f95e46d7660c1dff680a9b3a1a6e901d1b9f96c218af867d4326b12",
    ],
    "quadratic_pair/ml2o": [
        "1bb924f48938346a4f5daf5416d596f0219d005fe7fb779c36109bfcdba9b11c",
        "7a051e0467e68764e39b83831cff087bb08cc87f57727f770bfaf71cd812af49",
        "452795e83264cd6d5858452927e8201c5a84dcb9478e0a1630260bf1d234c1b8",
        "901d4eb825eb34bc5da8bb88d4f48068b2099863f910bce67be49c639bb13aff",
        "03f89a036321ce91a1ac06eb851cfb78fb1a6a2449c6f22991692dcc375f3843",
        "8cfa95b81b3353ce4695c751d4d99f9007c0cd46c76f43776be173509cccaca7",
    ],
    "quadratic_pair/moco": [
        "7f84600f93f308357720025b3fbccc11d6eda2f129e62195473458d15ca2553a",
        "a44e8b02eed534aba7c40cb3ff76a22276adc2d0def1ec91b53167a4573a8a7f",
        "832e0f57b5e010445628345ea3148d3f2bc7c3b3f8688b0ea40b2b30b31cb1b5",
        "fc8b9fb1b75f44d35ec6c0a7b7d2e60ffa92baa8c7b2b5fa06c5c434c9cd68ad",
        "9c6a7cedb6b78612976458bbcdf43f282ce30e66b7932ce63a7bf6c6b0eaa12a",
        "464705407a0a5582dee558e0a56200d06aeb1824263904e97769ee2832819e15",
    ],
    "quadratic_pair/momentum": [
        "5b76840d88ddb63e2f67b80641390c9f1b33c3e717e5e4c51fbd8253784cbfbc",
        "70a184bd101350c33c76b12202fe9c44e35965c90466207ada8c0ca343090c16",
        "e8cb04a0b0f812fd60bc44c567df97ced1ead1fb48785173eb5ca8c5abc9a2f5",
        "c3922e6b23964d712114a3c97878a7ec56d8adbf86ff1967f62d5ba041bbaeb8",
        "8bed2110b65036ec715a7db03359c14ab4428392de99bb7227dd0c6afd32ac68",
        "5217f04d34c42bdd52ef02a424a2f42c6f187f077113b1fc1118a79d6ccd2de6",
    ],
    "quadratic_pair/rmsprop": [
        "9d381e1121d9df66559d12c10a008234aa1625677fd603076b43a42618077001",
        "f557cd087d3e35988528651c02a141e7f421f69f2d311e9bdd07138b537bb8fa",
        "9cd94d9a8e5e2d30737d43a8d2b10a42282b0e62818952756940eba4d449acd3",
        "974b6a1a7bb486e7ac80cd97c7e58fd9e633969bea3a8a089b3c03702a4aa595",
        "d488345dfc7a1bfc544e3b620cf4703feeb45ea137920f6cbeb7e1dbd3088aaf",
        "18440933aa551249ea27ee16d4cbaa7d83e1da4744626c570f1421c4e2296df9",
    ],
    "quadratic_pair/sgd": [
        "f23c5e7aff70eb4b5a5e626c6c4eb8b72553323184b398c2cce00cca138fbbfb",
        "1185ce5392d4c569f9615eb11825435534a7f27cdeef445aa1b07b4751330798",
        "6fdcf408ada9798c10297cbd77df1c2574531224b0fec16bfbff05885e905593",
        "087198ce3ff015e8c6bb2f40d44bd7ddbafb1f37db389cb9ef947a96d94a99ae",
        "4fd47744481e43b4f724c5c1fb4a3ac5398b7e4f2d0f7f01c3ffb9454f8eb304",
        "4151427faad818aad90bb4ad3208b00e7445a8e184c64f16f00f92c8111a959f",
    ],
    "quadratic_pair/smg": [
        "127adfafffc381dcd49c11cb7e1db25ca9aac581bbf224862e79fe7eeddc60a1",
        "23e40af650318380e04424fcec75f9e91c7114c34fac83f351bbbca465820e64",
        "cb2e278adcb7b0022a24a98430c99a510a783811c5fdf0f4c5c6d5fa0e9eb368",
        "c0940e2a34f2520920275e69382f02f52a2e294f253b32f487f20dc9b41678fe",
        "3a53c988442ffa485e417ae9cf47b147ad8a226fddb307905296448d76f8c7f3",
        "c396a32781abc15d9da468e47f8c7eeed02885661deca6e6dbaa793c6ed16571",
    ],
    "toy_mtl/dssmg": [
        "dc8752bd8a683a40494540c3d55086f2498366734c0061455b7fbcf72e54d142",
        "b90b107548c8bc508a4d429305fc7cf0354bd663311d5a3c83a6681681e713a8",
        "b696090bbfb07391a87ba525b5ba350f365fc940f8426ed3a578cc7a9f99431b",
        "253f3c903e9dc6eb3f411cadd85456cfca0b9474f011bba381281dc3cf0416c1",
        "a195757e52acb16bdd0b52d72fdc6333b0e66068b365d9e6963a8f0883f2ac1f",
        "a229a6845acfdcce582dc78819bf62a51a0d3c52a4767b78ffefdaac9b89f60c",
    ],
    "toy_mtl/gml2o": [
        "79c42541f5436d368ad4c07104f153b645eecd7fe582221320cb179db3bca7a2",
        "35c5c34aba944ec4b093b91ec4335ed71403c93ca251cc30f602fd733cbcdedf",
        "78d32cb20aed87c7f972d574099b9ccf99daf8a3b0f41fa97d24e373f188c715",
        "6bb6f3e8b5ce1e1930cc9cd71fb09dbf2ac3cfd4174f1db46020cdf8365ff56a",
        "2b245c2e60962d5e6e66c953865537843a448863e10786c46823d78aa75be1b9",
        "48dd167a1acfb4272ff4f7d96dc4d2c25285514cda8d7b4fce95d4422327170d",
    ],
    "toy_mtl/mgda": [
        "d1bb94706fec5475ca50ba0510dad1a51aa0c9c60644a1ec216f445deef188cb",
        "79196f34a2c41cd3495a5a92492f87649bb21fe115e50458141d7110137e359f",
        "c4ea88a36aef0e770876b9758cee4c0efa7dc2b90523fe88cb57b241c772d0cd",
        "a91e5f6ffdae164c1d9aea9d665c6bb39d27f0bb1321dfa4f4070c290d1750f0",
        "84281161fa8f5182b4002756e131c13f952368ec52b14047df795b58b3271606",
        "b010c29ec2225e709141e698ab3dd047bd6cec51dd02e46a2c32c47c14a9eb6f",
    ],
    "toy_mtl/ml2o": [
        "e4be64849610f986db257f51dec5d96059eca5a67cae5000a8505fedad045467",
        "805ba30b3d7c51f2170b1017a6291a4cd04379753d62ef4a5678169a235b52cf",
        "7aefc10d1c0c3f62312551573c17415b754fa634a41a886bfe480dba48b51bc2",
        "7205fb278d8dd88de60e9290cd903a3bd52b71837b91f35737f50e2c5375ed2b",
        "b7104d85a1b48388acb98c3d0744e26c243edf86b90ae9b3916f41476cfe91ce",
        "88ea4eda7dee1aa42c49d36c262f0cbb83845e0092cbaa97e19cfe8a004ab1f4",
    ],
}


def population_hashes(problem, name, params, out):
    cfg = {
        "problem": problem,
        "optimizer": {"name": name, "params": params},
        "steps": 12,
        "step_schedule": {"kind": "constant", "alpha": 0.3},
        "sample_schedule": {"n_base": 4, "q": 0.1},
        "seeds": [1, 2],
        "population": 3,
        "outputs": out,
    }
    run_experiment(cfg)
    with open(os.path.join(out, "manifest.json")) as fh:
        runs = json.load(fh)["runs"]
    assert [(r["seed"], r["member"]) for r in runs] == [(s, m) for s in (1, 2) for m in range(3)]
    return [r["content_hash"] for r in runs]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden") / "ck.json")
    save_checkpoint(init_params(2, 4, 0), path)
    return path


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_hashes_match_golden(case, checkpoint, tmp_path):
    problem, name, params = CASES[case]
    params = {k: checkpoint if v is CHECKPOINT else v for k, v in params.items()}
    assert population_hashes(problem, name, params, str(tmp_path / "run")) == GOLDEN[case]


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_checkpoint_bytes_match_golden(checkpoint, tmp_path):
    """The bytes ``save_checkpoint`` writes for ``init_params(2, 4, 0)``, and
    those of a load -> save round trip of that file."""
    again = str(tmp_path / "again.json")
    save_checkpoint(load_checkpoint(checkpoint), again)
    want = "23af8d69412ea5bc815cb7d0950ea29a628e9294e2df8ac663575e99f997e66c"
    assert file_digest(checkpoint) == want
    assert file_digest(again) == want


def array_digest(arrays):
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def test_meta_train_bits_match_golden():
    sampler = lambda rng: make_quadratic_pair(3, seed=int(rng.integers(2**31 - 1)))
    trained, _ = meta_train(sampler, init_params(2, 4, 0), steps=20, window=10,
                            meta_lr=0.05, epochs=3, seed=1)
    assert array_digest(trained.arrays) == (
        "cc1a0a4553a27b0eda39f60bf66485a2ea753527ccd6561ae528b2e1c63007bd"
    )
    # the gradients of one taped window
    problem = make_quadratic_pair(3, seed=7, noise_sigma=0.1)
    assert window_digest(problem, np.random.default_rng(3)) == (
        "cb253e8e301693d17673e5f3990c12de1f4c71d005852b185e695ff8de9aefc9"
    )


def window_digest(problem, rng):
    """Digest of the parameter gradients of one taped 10-step window of an
    ``init_params(2, 4, 0)`` model on the dim-3 ``problem``, by checkpoint name."""
    params = init_params(2, 4, 0)
    store = store_from_params(params)
    tape = ad.Tape()
    leafs = {name: tape.param(store, name) for name in store.names()}
    x = problem.initial_point(rng).reshape(-1, 1)
    mean, _, _ = unroll_window(problem, x, init_state(2, 4, 3), leafs, 10, 0.1,
                               lambda j, xv: problem.sample_gradient(xv, rng))
    ad.backward(tape, mean)
    return array_digest({name: store.grads[name] for name in params.arrays})


def curved_pair(rng, dim):
    """A pair with random SPD curvature on both objectives."""
    c1, c2 = rng.uniform(-1.0, 1.0, (2, dim))
    b1, b2 = rng.normal(size=(2, dim, dim))
    return QuadraticPair(c1, c2, b1 @ b1.T / dim + 0.5 * np.eye(dim),
                         b2 @ b2.T / dim + 0.5 * np.eye(dim), noise_sigma=0.1, domain=(-1.0, 1.0))


def test_curved_quadratic_bits_match_golden():
    """The taped window of ``test_meta_train_bits_match_golden`` and a short
    training, on pairs with non-identity curvature on both objectives."""
    problem = curved_pair(np.random.default_rng(11), 3)
    assert window_digest(problem, np.random.default_rng(3)) == (
        "92cd99c0829c02264d43b945882ea5cb8601029a79c55ca5d6706201305ea1bc"
    )
    trained, _ = meta_train(lambda rng: curved_pair(rng, 5), init_params(2, 6, 3), steps=40,
                            window=10, meta_lr=0.05, epochs=10, seed=3, alpha=0.2)
    assert array_digest(trained.arrays) == (
        "ce73bc4bdafe2a449b5517d4fd137b09e7325fa6f873648e192a6c334c061178"
    )


def test_plain_window_bits_match_golden():
    """The untaped window: criterion 8's held-out meta-loss of an H = 8 and an
    H = 20 model, and the loss, iterate and state of one curved 30-step window
    from a random start state."""
    heldout = [make_quadratic_pair(8, seed=VALIDATION_PROBLEM_SEED + i) for i in range(20)]
    held = [evaluate_meta_loss(heldout, init_params(2, hidden, seed), 100, ML2O_RUN_ALPHA, seed=7)
            for hidden, seed in ((8, 0), (20, 1))]
    rng = np.random.default_rng(13)
    problem = curved_pair(rng, 5)
    x = problem.initial_point(rng).reshape(-1, 1)
    state = Ml2oState(rng.uniform(-0.5, 0.5, (2, 2, 5, 6)), rng.uniform(-0.5, 0.5, (2, 5, 12)))
    mean, x, state = unroll_window(problem, x, state, init_params(2, 6, 3).fused, 30, 0.2,
                                   lambda j, xv: problem.sample_gradient(xv, rng))
    arrays = {"held": held, "loss": mean, "x": x, "spec": state.spec, "shared": state.shared}
    assert array_digest(arrays) == (
        "3439ce03d623b8d49348b0ec004eebfab873b3c5f820a5630254aead4d89009a"
    )


def two_objective_solves():
    """Criterion 1's M = 2 instances, then the M = 2 entries of ``hard_battery(17)``
    at the scales of the hard-battery tests, each with its ``tol``."""
    rng = np.random.default_rng(20240001)
    for _ in range(1000):
        yield rng.uniform(-1, 1, size=(2, int(rng.integers(1, 11)))), 1e-10
    for scale in (1e-6, 1.0, 1e6):
        for w in hard_battery(17):
            if w.shape[0] == 2:
                yield w * np.sqrt(scale), 1e-10 * scale


def many_objective_solves():
    """Criterion 2's M >= 3 instances, drawn as that criterion draws all 1200,
    then the M >= 3 entries of ``hard_battery(17)`` at the scales above."""
    rng = np.random.default_rng(20240002)
    for _ in range(1200):
        m = int(rng.integers(2, 6))
        w = rng.normal(size=(m, int(rng.integers(1, 10))))
        if m >= 3:
            yield w, 1e-10
    for scale in (1e-6, 1.0, 1e6):
        for w in hard_battery(17):
            if w.shape[0] >= 3:
                yield w * np.sqrt(scale), 1e-10 * scale


def solve_digest(solves):
    h = hashlib.sha256()
    for w, tol in solves:
        sol = solve_min_norm(w, tol=tol)
        for name in SOLUTION_FIELDS:
            h.update(np.asarray(getattr(sol, name)).tobytes())
    return h.hexdigest()


def test_two_objective_min_norm_bits_match_golden():
    """Every field of every M = 2 ``solve_min_norm`` above, bit for bit."""
    assert solve_digest(two_objective_solves()) == (
        "e4b7e5756752314b5ba8aa77dd3d351fe1664555102a25ee4d7ef4772f800826"
    )


def test_many_objective_min_norm_bits_match_golden():
    """Every field of every M >= 3 ``solve_min_norm`` above, bit for bit."""
    assert solve_digest(many_objective_solves()) == (
        "17442ff6889108950475b63c1eb09e7a8948ec1309df0d714a6b2856d69ed0bd"
    )
