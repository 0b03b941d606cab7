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
HUGE = "1" + "0" * 400  # a grid point past the float range

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
    # preset listing, the exact and reference oracles, and preset error paths
    ('presets_text', 'presets',
     0, 'e3dc7755cfb8a00b5d8795a31ee8ac4f851199f84e69e26cfdfe5af2af9aaf12', EMPTY),
    ('presets_csv', 'presets --format csv',
     0, '030d36962c36183ae32b33f48d84cd40e3448d5ed9c8d0d08e6abfaa082e14fa', EMPTY),
    ('exact_lane_emden_m0', 'compare --preset lane_emden --param m=0 --order 16 --against exact',
     0, '0473c91e8fa287e0c926a2b60d6a10d35ebf2cbc110a461a6de8c0e589432353', EMPTY),
    ('exact_lane_emden_m1', 'compare --preset lane_emden --param m=1 --order 16 --against exact',
     0, '0bfcfb1c286002b632802964d46d2345a49b5c93d07005da47b311205d409d08', EMPTY),
    ('exact_lane_emden_m5', 'compare --preset lane_emden --param m=5 --order 16 --against exact --mode rational',
     0, '98ed30c5316a22522a9bc91dd961c0aa3aacc774dd1ca9c1d271150f7cc022b5', EMPTY),
    ('exact_example5', 'compare --preset example5 --param a=1/2 --order 16 --against exact',
     0, '3888fc6deaf2c5bb25075f17d36c92d4fb4cef77d70aae5b6590229029470c38', EMPTY),
    ('exact_example6', 'compare --preset example6 --order 16 --against exact --format csv',
     0, '51e02467cd189c8e0c1700d7399d240b7ceb265ff0efad74ce346e2acac9c019', EMPTY),
    ('reference_isothermal', 'compare --preset isothermal --order 10 --against reference --mode rational',
     0, 'fca2a2a8ba9ae3486e5dcc04bc273f6e10abda24066e11b682c7889a1858c394', '1aa8dde484383818e05b8669f44f82aefa878c07c74c69d8920dd7289ff01c5b'),
    ('reference_sinh_case', 'compare --preset sinh_case --order 10 --against reference',
     0, 'eaae9baf7b877292f7e7dacc178108875c84f45148e7027f7234748a468fe65a', '59047d10da27f86505d3b4facd9262ff006e15233e0b547aa6abe427c12c4822'),
    ('reference_sin_case', 'compare --preset sin_case --order 12 --against reference --format csv',
     0, 'bf28acaf8c37879fc6efc60165d9d370705539d890c5c97a5de120161f42a322', '77fe3ab36050336a3b1f094b1a30d123c04abd659f7aa240d35f77ed49d652e3'),
    ('error_unknown_preset', 'solve --preset polytrope --order 10',
     1, EMPTY, '22664d68ef6b4ad0b9bc7f7deb6a2b307f23e256b12aa0fe0f30f53dde2d117e'),
    ('error_missing_m', 'solve --preset lane_emden --order 10',
     1, EMPTY, 'f36cce72cc10b0c3db507e7b2da37159d7435e0d2eabb4e2593c6450015607eb'),
    ('error_negative_m', 'solve --preset lane_emden --param m=-1 --order 10',
     1, EMPTY, '5b2c8eece813dcb6a6ad1dd29175614deafde7d6d52ba22bfe219894de83b295'),
    ('error_isothermal_with_m', 'solve --preset isothermal --param m=2 --order 10',
     1, EMPTY, '08aa865cb02e8fefb26ed0088d2a9a8b3dfbd0260461f6fd9ba10c1a9954df7b'),
    ('error_example5_a0', 'solve --preset example5 --param a=0 --order 10',
     1, EMPTY, '81a6e80114a4223fc8e390f3881d3e790a5ff1e1598129ed27b531f22b4f2475'),
    ('error_unknown_param', 'solve --preset example6 --param b=2 --order 10',
     1, EMPTY, '10c6beeef024d3e58c7e6c49d8401887e336222d07cd8797bf1d36f543a10756'),
    ('error_exact_isothermal', 'compare --preset isothermal --order 10 --against exact',
     1, EMPTY, 'eac59faca2d4a6259db95cfd1e5e157bf38a937c3d752ce678bddf9ece4b76a1'),
    ('error_exact_lane_emden_m2', 'compare --preset lane_emden --param m=2 --order 10 --against exact',
     1, EMPTY, '7bad53c06ea30a86ff5fc6ae05ce3d7db59e68dcbaf2e80f03255724e82b0b6f'),
    ('error_reference_lane_emden', 'compare --preset lane_emden --param m=1 --order 10 --against reference',
     1, EMPTY, '85ab3295196d14b2dbe139ae3d5ef45a9e7150641e8771f3782e8fa384050539'),
    ('error_unknown_preset_no_order', 'solve --preset polytrope',
     1, EMPTY, '22664d68ef6b4ad0b9bc7f7deb6a2b307f23e256b12aa0fe0f30f53dde2d117e'),
    ('error_no_order', 'eval --preset isothermal --at 1',
     1, EMPTY, '6ee62abf4f65c124795e8fbd5abb01339d3a94b8b2b08c2bcd2025aed99d27ef'),
    ('error_no_order_before_missing_m', 'solve --preset lane_emden',
     1, EMPTY, '6ee62abf4f65c124795e8fbd5abb01339d3a94b8b2b08c2bcd2025aed99d27ef'),
    ('error_unknown_param_before_missing_m', 'solve --preset lane_emden --param q=1 --order 10',
     1, EMPTY, 'd33ad9c265c0275f942e4237cdfd7f612413faf0b653f9907f03c01c6498f8e5'),
    ('error_lane_emden_with_a', 'compare --preset lane_emden --param m=1 --param a=2 --order 10 --against exact',
     1, EMPTY, 'a0ad197524691d661eaeb6eca3af7a57c94068a1f1356bd0a271b82cb1d22faa'),
    # malformed options, and presets whose g has no exact seed in rational mode
    ('error_bad_param_value', 'solve --preset lane_emden --param m=abc --order 10',
     1, EMPTY, '1a05ce237d380c1e2ce51ce098c07ed4eb56efff884173222cb609b80da3b4c6'),
    ('error_range_parts', 'eval --preset isothermal --order 10 --range 0:1',
     1, EMPTY, '1f9fb70629010f0ff83172f399835e750734fdabf2c451353fe727febdbbe4af'),
    ('error_range_number', 'eval --preset isothermal --order 10 --range 0:x:1/8',
     1, EMPTY, '6b44cece353d3933a30d5a68c0002aa553b1d5270dd623e04f97dcbcf14990b4'),
    ('error_range_step', 'eval --preset isothermal --order 10 --range 0:1:0',
     1, EMPTY, '4a86bee2bff8f663b6bc69e5241911479ece4f06a48cbc004d01e8a7ba7f439e'),
    ('error_range_reversed', 'eval --preset isothermal --order 10 --range 1:0:1/8',
     1, EMPTY, 'da4dc3c30da85905f982501e0bf5419a1f3832407965c62f86c6291a9bfe3f15'),
    ('error_file_and_preset', 'solve --file isothermal.efp --preset isothermal --order 10',
     1, EMPTY, 'c80e408b0cf6b36ce6b116e9275637517e4eb589a5d7a115f30471531b644bd0'),
    ('error_bad_at', 'eval --preset isothermal --order 10 --at 1/0',
     1, EMPTY, '44a87e891aa7c523af863f3190e015fed838a053185a78f2325d03b830b7ef75'),
    ('error_compare_without_preset', 'compare --file isothermal.efp --order 10 --against exact',
     1, EMPTY, '0965536f2fdbc8e2f9a54fad156a1eafc82c0490dbe7853d24cf9234c0cf179f'),
    ('error_sin_case_rational', 'solve --preset sin_case --order 6 --mode rational',
     1, EMPTY, '5ff083f73119613bb7d44674617b9c977f47df77ae4a2a026c9121d733d56065'),
    ('error_sinh_case_rational_numeric', 'compare --preset sinh_case --order 6 --mode rational --against numeric',
     1, EMPTY, '572a68d817b8fd6bce3e1736e03b530b38aebb13b6e133b41718daec64c5b5c6'),
    ('error_eval_huge_point', f'eval --preset example6 --order 6 --at {HUGE}',
     1, EMPTY, 'c539ddd53939188fd476d558b6904a59e2566c9d60c647ed93d310f7bcb59edb'),
    ('error_compare_huge_point', f'compare --preset example6 --order 6 --against exact --range {HUGE}:{HUGE}:1',
     1, EMPTY, 'c539ddd53939188fd476d558b6904a59e2566c9d60c647ed93d310f7bcb59edb'),
    # an odd order ends on an odd zero; a negative a prints that zero as 0, not -0
    ('solve_float_lane_emden_41', 'solve --preset lane_emden --param m=3/2 --order 41 --mode float',
     0, '1bc79157ccb81e064fdbf8e85b642c957da417b43c80552307f9eb37f0e76e6e', EMPTY),
    ('solve_float_example6_negative_a_40', 'solve --preset example6 --param a=-1/2 --order 40 --mode float',
     0, 'a98a34f2487873f292e64eb1ed224a16d5e5dd377b52434c3949435c1297378a', EMPTY),
    # the Dormand-Prince oracle on every preset, on the default grid and on one
    # past x = 2; float lane_emden m=1 is left out (its float coefficients are
    # checked against the rational ones in tests/test_solver.py)
    ('numeric_lane_emden_m0', 'compare --preset lane_emden --param m=0 --order 20 --against numeric',
     0, '2495094a7e4ea6f8bd78b5f816a3b2d507c06c6d45016849903340d741637420', EMPTY),
    ('numeric_lane_emden_m0_range', 'compare --preset lane_emden --param m=0 --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, '634ec9a6661f0aff65178d1eef95b5cc4ac19bd3a578226534c5d78b3710d9d1', EMPTY),
    ('numeric_lane_emden_m1_rational', 'compare --preset lane_emden --param m=1 --order 20 --against numeric --mode rational',
     0, '93c413bfc7246926f286641aaf05426100eeaa04b97165621b8e0874995969cb', EMPTY),
    ('numeric_lane_emden_m1_rational_range', 'compare --preset lane_emden --param m=1 --order 20 --against numeric --mode rational --range 0:3:1/4 --format csv',
     0, 'd6e991afee496b28a33f75694faa1bb5b126657a7daa31de74db9399266103ac', EMPTY),
    ('numeric_lane_emden_m3_2', 'compare --preset lane_emden --param m=3/2 --order 20 --against numeric',
     0, 'cc1d03da208364f33c015d6f1a06c66971506c4cdc218cb57102c08e0895e703', EMPTY),
    ('numeric_lane_emden_m3_2_range', 'compare --preset lane_emden --param m=3/2 --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, '01b5c82ede83f0acb4b81a11fd35cb42ffe2afff53540a012119d2226ac9755e', EMPTY),
    ('numeric_lane_emden_m5', 'compare --preset lane_emden --param m=5 --order 20 --against numeric',
     0, '01befc0b7f14b0c3f7d2e0018172823457baf79ba9f624e4c149673e10dc00ea', EMPTY),
    ('numeric_lane_emden_m5_range', 'compare --preset lane_emden --param m=5 --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, '69b9ad871b9d5ea5b72e28926ca36e28a419cde1938e1d40a2b97083cade20eb', EMPTY),
    ('numeric_isothermal', 'compare --preset isothermal --order 20 --against numeric',
     0, '1bf30dc89eee16518b0a8b02856a48cad416cfa70b5f3aaf7f2ea3d85047f034', EMPTY),
    ('numeric_isothermal_range', 'compare --preset isothermal --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, 'e333d9151d4ce5664610ae7e9c07a88e413f7f22f853908e75c3d1f45d7ec659', EMPTY),
    ('numeric_isothermal_rational', 'compare --preset isothermal --order 20 --against numeric --mode rational',
     0, '5e8c8aa32aa6b304ab9a4cd3ccedc0a6eb946b843cc8683c23f678b4f2ee00a9', EMPTY),
    ('numeric_isothermal_rational_range', 'compare --preset isothermal --order 20 --against numeric --mode rational --range 0:3:1/4 --format csv',
     0, 'b82af9bfd34381b1d9c45f2c94925a31a00dfdb6d3a0c883937bf9cfbeb81b38', EMPTY),
    ('numeric_sinh_case', 'compare --preset sinh_case --order 20 --against numeric',
     0, 'f5bfb9b2719d485e40a7965943069b73d0936cd510c6b5a351a2e38e6a6ba9a0', EMPTY),
    ('numeric_sinh_case_range', 'compare --preset sinh_case --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, '2a43f2bc937df2ef1170119d6b8a8d2dc45e2d4a244f98fdd91a901ae4c7801b', EMPTY),
    ('numeric_sin_case', 'compare --preset sin_case --order 20 --against numeric',
     0, '87b3f86bfb1ca6dc98d9d170aa3e0ad0823659467206bde3c8e8696b1ca4cd1e', EMPTY),
    ('numeric_sin_case_range', 'compare --preset sin_case --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, 'e7d051332651ee1c45f91e90cfb44371d9b6f56c84c0f054b37507a27698c659', EMPTY),
    ('numeric_example5', 'compare --preset example5 --param a=1 --order 20 --against numeric',
     0, '8465a72ffff9941e4cc4e25e819a017570125ee8b19b63c58c0f22bccdf85a94', EMPTY),
    ('numeric_example5_range', 'compare --preset example5 --param a=1 --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, '8aadc547c99273dec6375bab3a05356f9c1225ad1e9cdb37d50d2175fea00883', EMPTY),
    ('numeric_example6', 'compare --preset example6 --param a=1 --order 20 --against numeric',
     0, 'f01a38c1f4480a1a531508ba06222b18d4fbb86dc3635d885c1ec81542f693da', EMPTY),
    ('numeric_example6_range', 'compare --preset example6 --param a=1 --order 20 --against numeric --range 0:3:1/4 --format csv',
     0, '8dedc64bc32028b87adda45066f4ec9beef97c8d7c523dbb7614eb1f9f0d9c54', EMPTY),
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


# f = 1 - 2x^2 + x^4 is even but not constant: every other case has f = 1
EVEN_PROFILE = """\
[equation]
p = 2
a = 1
f = 1 - 2*x^2 + x^4
g = y^2 + exp(y) - 1/2*sin(y)*cos(y)

[initial]
y0 = 0

[solve]
order = 30
mode = rational
"""

FILE_CASES = [
    ('solve_rational_even_profile', 'solve --file {} --mode rational',
     0, 'c218cd347573b377a457915185fe1f88952148973fade98c8d2458efcaa76dc2', EMPTY),
    ('solve_float_even_profile', 'solve --file {} --mode float --order 41',
     0, 'b3063b9cff6e8f6e16e64f1e4eb52844794fedc71708fdf492cdad04ac71f4c0', EMPTY),
    ('eval_rational_even_profile', 'eval --file {} --mode rational --range 0:1:1/8 --format csv',
     0, 'dbfca5f956972a6d3e6265b644d09fe770ad40631f73e6d827dacdc4dea91d7a', EMPTY),
    ('eval_float_even_profile', 'eval --file {} --mode float --range 0:1:1/8 --format csv',
     0, '5a6a6b97100c9d0870396d2150878bb3fee4250bf3105e537e29d5a1e3c0dbd2', EMPTY),
]


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha", [c[1:] for c in FILE_CASES], ids=[c[0] for c in FILE_CASES]
)
def test_problem_file_output_unchanged(tmp_path, argv, code, out_sha, err_sha):
    path = tmp_path / "even_profile.efp"
    path.write_text(EVEN_PROFILE)
    test_cli_output_unchanged(argv.format(path), code, out_sha, err_sha)
