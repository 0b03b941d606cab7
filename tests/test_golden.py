"""Golden CLI output: SHA-256 of stdout and stderr plus the exit code.

The hashes pin full-order tables byte for byte, float ones included, so
a change to the arithmetic that moves any printed digit (or a warning)
fails here.  Regenerate them only for an intended change of output.
"""

import contextlib
import hashlib
import io

import pytest

from emdenseries import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# (case id, argv, exit code, sha256(stdout), sha256(stderr))
CASES = [
    ('solve_rational_lane_emden_m0_10', 'solve --preset lane_emden --param m=0 --order 10 --mode rational',
     0, 'f0e8ac5c78ffb11e9ce1a65825654108050b08be7570744e81b5d6d72a9d710f', EMPTY),
    ('solve_rational_lane_emden_m0_50', 'solve --preset lane_emden --param m=0 --order 50 --mode rational',
     0, '522e5b1b62d4542427a9624c923c7ea60607660ae4041ed60e5238dac30963a5', EMPTY),
    ('solve_rational_lane_emden_m0_200', 'solve --preset lane_emden --param m=0 --order 200 --mode rational',
     0, 'b1f0ad0bd7f7551a6ef3900a1ba358e501eb4c24c2db1cb5fe0613edf92ab870', EMPTY),
    ('solve_rational_lane_emden_m1_10', 'solve --preset lane_emden --param m=1 --order 10 --mode rational',
     0, '818cb8e4647758bad6b8182ef081ffbe6f2ae7682c35c0ea19f8a1324a755156', EMPTY),
    ('solve_rational_lane_emden_m1_50', 'solve --preset lane_emden --param m=1 --order 50 --mode rational',
     0, '092dc672d2e81c7ecbde19c91da0f563a683647892315931d583bcc6c85e0da2', EMPTY),
    ('solve_rational_lane_emden_m1_200', 'solve --preset lane_emden --param m=1 --order 200 --mode rational',
     0, '4cb4788247854e2c799aa8af0b0414759eebc639e25941570518ef3ed759e8c4', EMPTY),
    ('solve_rational_lane_emden_m5_10', 'solve --preset lane_emden --param m=5 --order 10 --mode rational',
     0, 'fc2594487e5c5ce5b14cb2e86f48169fdf581de4e8556d080636133f28d87116', EMPTY),
    ('solve_rational_lane_emden_m5_50', 'solve --preset lane_emden --param m=5 --order 50 --mode rational',
     0, 'a3739dd783ebe0e7e076a4d03c69033f0de314cada2d5854151c04a79d01bfd9', EMPTY),
    ('solve_rational_lane_emden_m5_200', 'solve --preset lane_emden --param m=5 --order 200 --mode rational',
     0, '98a6d78242c7740e25a4efc695b06a4eb6455df8d0b57f06038807c9a469ae69', EMPTY),
    ('solve_rational_isothermal_10', 'solve --preset isothermal --order 10 --mode rational',
     0, '20c24cbcc52ecc0138d85ddc488b3164442cbe5feaf6326720fbc232d6534f1d', EMPTY),
    ('solve_rational_isothermal_50', 'solve --preset isothermal --order 50 --mode rational',
     0, 'a5c2f9a913fccbe776be86645d1b42030ff0c7a55405887d7cf95b7c7c028e41', EMPTY),
    ('solve_rational_isothermal_200', 'solve --preset isothermal --order 200 --mode rational',
     0, 'cb5d4c99d3df5e8dee1f32eac899d12ae130fca1dd208d9fd3087530a1603869', EMPTY),
    ('solve_rational_example5_10', 'solve --preset example5 --order 10 --mode rational',
     0, 'f7627ae92d99e18d44cf4cbad7e36880d3ce9ce87382eb36699881c42947fc56', EMPTY),
    ('solve_rational_example5_50', 'solve --preset example5 --order 50 --mode rational',
     0, '25e26853a9d64f8151c3e9df9d863fd411b3fe691c5e99ccd6ac5f1f7dede3c7', EMPTY),
    ('solve_rational_example5_200', 'solve --preset example5 --order 200 --mode rational',
     0, '75b710d53faef0c35ea5600c08d0e7200b3b03a97a1b274f00c485fa9ac335b8', EMPTY),
    ('solve_rational_example6_10', 'solve --preset example6 --order 10 --mode rational',
     0, 'e50a9302009ea15a50ee3fd23d22b08ebb577b1d50478299575fa30a81233277', EMPTY),
    ('solve_rational_example6_50', 'solve --preset example6 --order 50 --mode rational',
     0, '951895708d38fbb7a98621edfd11bd3bc3fc264046b4dc28db8c8b3540e26a76', EMPTY),
    ('solve_rational_example6_200', 'solve --preset example6 --order 200 --mode rational',
     0, '2dae3aa55d21bf7ff0d14502a65c41d47db3970e6c0b2627e721f8805985fce7', EMPTY),
    ('solve_float_lane_emden_200', 'solve --preset lane_emden --param m=3/2 --order 200 --mode float',
     0, '64c497d6434671f418db85aaaae9a25b98a3c2fe8c1bfe46a5ac73cd2a738ec6', EMPTY),
    ('solve_float_isothermal_200', 'solve --preset isothermal --order 200 --mode float',
     0, 'd29231f9f831e6282e9afb4ac974c40dcea5e0ca4b0fc204049be9630fef3dff', EMPTY),
    ('solve_float_sinh_case_200', 'solve --preset sinh_case --order 200 --mode float',
     0, 'afda62aeee0f69644dc46dd927eee245e6a108cf7d3ad8bea5def63be779dec2', EMPTY),
    ('solve_float_sin_case_200', 'solve --preset sin_case --order 200 --mode float',
     0, '45b0d3ffd46697f2289de6b3cc47876fb7ce1e208003c3179826268d338339da', EMPTY),
    ('solve_float_example5_200', 'solve --preset example5 --order 200 --mode float',
     0, 'dadd7f9f930f0ee554d4eb1b578298ff63099db287d264bb8fdbc49adca7a83b', EMPTY),
    ('solve_float_example6_200', 'solve --preset example6 --order 200 --mode float',
     0, '517ed3be5d6a987c79bd0e6cfc003c6d5cd195c4011b740158ebe62d99ebca06', 'cba8ad8e6bf5d8fb70a720d40c97b54416e0810df1e92f0de7e6fb5614f7c86b'),
    ('eval_lane_emden', 'eval --preset lane_emden --param m=5 --mode rational --order 30 --range 0:1:1/8 --format csv',
     0, '23ed3148586b78032e41ff097fcf5577ecfe30893b6c24f1912bb4cf30672078', EMPTY),
    ('eval_isothermal', 'eval --preset isothermal --mode rational --order 30 --range 0:1:1/8 --format csv',
     0, 'da2dc434107e7e6f6529680395b2503ea0ffa96210c6fcea26c949db7f742b11', EMPTY),
    ('eval_sinh_case', 'eval --preset sinh_case --order 30 --range 0:1:1/8 --format csv',
     0, '83f12ba444481b5a5fb017360ce73676a7942959f537cff18238a5025e4799f1', EMPTY),
    ('eval_sin_case', 'eval --preset sin_case --order 30 --range 0:1:1/8 --format csv',
     0, 'd84b7ca6d9060b9f503515f8591f102a2b546981a810f13b9fa4cc5a6bbf6cc1', EMPTY),
    ('eval_example5', 'eval --preset example5 --param a=2/3 --mode rational --order 30 --range 0:1:1/8 --format csv',
     0, '2115168ab7f5f636e2920e72ad60ad0a386d8598256619cb75ca81f15937298a', EMPTY),
    ('eval_example6', 'eval --preset example6 --param a=3/4 --order 30 --range 0:1:1/8 --format csv',
     0, '7e07d2d68f394155b5bf1677aeaf04c77887b213b4c1cdbe9565f8df98ba86fe', EMPTY),
]


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_cli_output_unchanged(argv, code, out_sha, err_sha):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv.split())
    assert rc == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == err_sha
