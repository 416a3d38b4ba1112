"""Orthonormal Daubechies filter coefficient tables.

Two families are provided: the extremal phase filters of orders 1..10 and
the least asymmetric ("symlet") filters of orders 4..10.  The order equals
the number of vanishing moments; the filter has 2 * order taps.  Tables were
computed by spectral factorisation of the Daubechies half-band polynomial at
60-digit working precision (scripts/gen_filter_tables.py) and are stored as
the nearest double of each coefficient.

The low-pass filter h is normalised so sum(h) = sqrt(2) and ||h|| = 1.  The
high-pass filter is derived by the quadrature mirror relation

    g[k] = (-1)**k * h[N - 1 - k],   k = 0..N-1   (zero based)

so for the Haar filter g = (2**-0.5, -2**-0.5).  Orientation note: mirror
image filters are equivalent for every quantity computed in this package;
the least asymmetric tables follow the orientation of the commonly printed
tables (order 7 may appear reversed relative to some sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedFilter, check_integer

__all__ = ["WaveletFilter", "wavelet_filter"]

EXTREMAL_PHASE = "extremal_phase"
LEAST_ASYMMETRIC = "least_asymmetric"

# accepted spellings for each family, lower-cased and without "_", "-" or spaces
_FAMILY_ALIASES = {
    "extremalphase": EXTREMAL_PHASE,
    "daubexphase": EXTREMAL_PHASE,
    "ep": EXTREMAL_PHASE,
    "leastasymmetric": LEAST_ASYMMETRIC,
    "daubleasymm": LEAST_ASYMMETRIC,
    "la": LEAST_ASYMMETRIC,
}

_EP1 = (

    0.7071067811865476,
    0.7071067811865476,
)

_EP2 = (

    0.48296291314453416,
    0.8365163037378079,
    0.2241438680420134,
    -0.12940952255126037,
)

_EP3 = (

    0.33267055295008263,
    0.8068915093110925,
    0.45987750211849154,
    -0.13501102001025458,
    -0.08544127388202666,
    0.03522629188570953,
)

_EP4 = (

    0.2303778133088965,
    0.7148465705529157,
    0.6308807679298589,
    -0.027983769416859854,
    -0.18703481171909309,
    0.030841381835560764,
    0.0328830116668852,
    -0.010597401785069032,
)

_EP5 = (

    0.16010239797419293,
    0.6038292697971896,
    0.7243085284377729,
    0.13842814590132074,
    -0.24229488706638203,
    -0.032244869584638375,
    0.07757149384004572,
    -0.006241490212798274,
    -0.012580751999081999,
    0.0033357252854737712,
)

_EP6 = (

    0.11154074335010947,
    0.49462389039845306,
    0.7511339080210954,
    0.31525035170919763,
    -0.22626469396543983,
    -0.12976686756726194,
    0.09750160558732304,
    0.027522865530305727,
    -0.03158203931748603,
    0.0005538422011614961,
    0.004777257510945511,
    -0.0010773010853084796,
)

_EP7 = (

    0.07785205408500918,
    0.3965393194819173,
    0.7291320908462351,
    0.4697822874051931,
    -0.14390600392856498,
    -0.22403618499387498,
    0.07130921926683026,
    0.08061260915108308,
    -0.03802993693501441,
    -0.01657454163066688,
    0.01255099855609984,
    0.0004295779729213665,
    -0.0018016407040474908,
    0.00035371379997452024,
)

_EP8 = (

    0.05441584224310401,
    0.31287159091429995,
    0.6756307362972898,
    0.5853546836542067,
    -0.015829105256349306,
    -0.2840155429615469,
    0.0004724845739132828,
    0.12874742662047847,
    -0.017369301001807547,
    -0.044088253930794755,
    0.013981027917398282,
    0.008746094047405777,
    -0.004870352993451574,
    -0.00039174037337694705,
    0.0006754494064505693,
    -0.00011747678412476953,
)

_EP9 = (

    0.038077947363878345,
    0.24383467461259034,
    0.6048231236901112,
    0.6572880780513005,
    0.13319738582500756,
    -0.2932737832791749,
    -0.09684078322297646,
    0.14854074933810638,
    0.03072568147933338,
    -0.06763282906132997,
    0.00025094711483145197,
    0.022361662123679096,
    -0.004723204757751397,
    -0.00428150368246343,
    0.0018476468830562265,
    0.00023038576352319597,
    -0.0002519631889427101,
    3.93473203162716e-05,
)

_EP10 = (

    0.026670057900555554,
    0.1881768000776915,
    0.5272011889317256,
    0.6884590394536035,
    0.2811723436605775,
    -0.24984642432731538,
    -0.19594627437737705,
    0.12736934033579325,
    0.09305736460357235,
    -0.07139414716639708,
    -0.029457536821875813,
    0.033212674059341,
    0.0036065535669561697,
    -0.010733175483330575,
    0.001395351747052901,
    0.001992405295185056,
    -0.0006858566949597116,
    -0.00011646685512928545,
    9.358867032006959e-05,
    -1.3264202894521244e-05,
)

_LA4 = (

    -0.07576571478950221,
    -0.029635527646002493,
    0.497618667632775,
    0.8037387518051321,
    0.29785779560530606,
    -0.09921954357663353,
    -0.012603967262031304,
    0.032223100604051466,
)

_LA5 = (

    0.027333068344998768,
    0.02951949092570626,
    -0.039134249302313844,
    0.19939753397685558,
    0.7234076904040407,
    0.633978963456792,
    0.01660210576451085,
    -0.17532808990805623,
    -0.021101834024689042,
    0.019538882735249827,
)

_LA6 = (

    0.015404109327044824,
    0.0034907120842221626,
    -0.11799011114852002,
    -0.04831174258569806,
    0.49105594192797375,
    0.787641141028651,
    0.3379294217281658,
    -0.07263752278637658,
    -0.02106029251237085,
    0.04472490177078139,
    0.0017677118642540077,
    -0.00780070832503238,
)

_LA7 = (

    0.010268176708464817,
    0.0040102448715223955,
    -0.10780823770328972,
    -0.14004724044293365,
    0.2886296317506479,
    0.7677643170048829,
    0.5361019170905692,
    0.017441255086835708,
    -0.04955283493704283,
    0.06789269350122057,
    0.030515513165877885,
    -0.012636303403240567,
    -0.001047384888679738,
    0.002681814568260147,
)

_LA8 = (

    -0.0033824159510050028,
    -0.0005421323318000107,
    0.03169508781152599,
    0.007607487324976609,
    -0.14329423835127267,
    -0.061273359067811076,
    0.4813596512590534,
    0.777185751699628,
    0.36444189483617895,
    -0.0519458381078818,
    -0.027219029917103486,
    0.04913717967373029,
    0.0038087520138944896,
    -0.014952258337062199,
    -0.0003029205147241331,
    0.001889950332767689,
)

_LA9 = (

    0.0014009155259146562,
    0.0006197808889855071,
    -0.013271967781817134,
    -0.011528210207679187,
    0.030224878858275187,
    0.0005834627461249819,
    -0.05456895843083335,
    0.23876091460730517,
    0.7178970827644124,
    0.6173384491409342,
    0.03527248803527104,
    -0.19155083129728434,
    -0.018233770779395506,
    0.062077789302885746,
    0.008859267493400267,
    -0.010264064027633121,
    -0.00047315449868004354,
    0.001069490032908612,
)

_LA10 = (

    0.0007701598091144599,
    9.563267072285273e-05,
    -0.00864129927702215,
    -0.0014653825813046104,
    0.04592723923109151,
    0.011609893903711319,
    -0.1594942788849106,
    -0.07088053578323157,
    0.4716906669384429,
    0.7695100370210979,
    0.3838267610670763,
    -0.035536740473819585,
    -0.03199005688242811,
    0.049994972077375154,
    0.00576491203358115,
    -0.02035493981231111,
    -0.0008043589320164513,
    0.004593173585311792,
    5.703608361849501e-05,
    -0.00045932942100465206,
)


_TABLES = {
    EXTREMAL_PHASE: {p: globals()[f"_EP{p}"] for p in range(1, 11)},
    LEAST_ASYMMETRIC: {p: globals()[f"_LA{p}"] for p in range(4, 11)},
}


@dataclass(frozen=True)
class WaveletFilter:
    """An orthonormal low/high-pass filter pair.

    Attributes:
        family: canonical family name.
        number: filter order (vanishing moments); the length is 2 * number.
        lowpass: h, summing to sqrt(2).
        highpass: g, the quadrature mirror of h.
    """

    family: str
    number: int
    lowpass: np.ndarray = field(repr=False)
    highpass: np.ndarray = field(repr=False)

    @property
    def length(self) -> int:
        return int(self.lowpass.size)

    @property
    def label(self) -> str:
        return f"{self.family}:{self.number}"


def canonical_family(family: str) -> str:
    """Resolve a family spelling to its canonical name."""
    key = "".join(c for c in str(family).lower() if c not in "_- ")
    if key not in _FAMILY_ALIASES:
        raise UnsupportedFilter(f"unknown wavelet family {family!r}")
    return _FAMILY_ALIASES[key]


def _mirror_highpass(h: np.ndarray) -> np.ndarray:
    signs = np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


def wavelet_filter(family: str, number: int) -> WaveletFilter:
    """Look up a filter pair by family and order.

    Raises UnsupportedFilter for unknown families and for orders that are
    not integers in the tabulated range.
    """
    fam = canonical_family(family)
    table = _TABLES[fam]
    orders = sorted(table)
    number = check_integer(
        number, "filter number", orders[0], orders[-1], UnsupportedFilter,
        f"family {fam!r} provides orders {orders}, not {number}",
    )
    h = np.array(table[number], dtype=np.float64)
    g = _mirror_highpass(h)
    h.setflags(write=False)
    g.setflags(write=False)
    return WaveletFilter(family=fam, number=number, lowpass=h, highpass=g)
