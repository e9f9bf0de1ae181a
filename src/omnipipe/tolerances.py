"""Every tolerance in omnipipe, defined once, in its unit, with the reason
for its value.

A tolerance decides where a predicate flips: whether a roll lies in a
tee's singularity region, whether a roll is too small to plan, whether a
Monte Carlo draw needs the scalar path, whether a mission reached the end
of its network.  Several of them must cover others, and the comments say
which; tests/test_tolerances.py shows each such fact at its extreme
input.  No other module of the package holds a tolerance literal (the
same test checks that), and this one imports nothing, so every module
can read it.
"""

# -- limits the tolerances below are derived from ----------------------------

# run_mission keeps every substep record in memory, so a plan may take at
# most this many substeps in all
MAX_SUBSTEPS = 1_000_000

# -- roll angles, degrees ----------------------------------------------------

# The slack of every comparison of roll angles: in_singularity's closed
# region, a free gap too narrow to count as open, escape_rotation's ties
# and its already-centred test, the planner's skip of a zero roll, and
# the merging of interval endpoints.  Far above the rounding of the roll
# arithmetic (ulp(360) is 5.7e-14), far below any roll that matters.
ANGLE_SLACK_DEG = 1e-9

# How far past +-60 deg, half the roll period, a planned roll may reach:
# it covers the rounding of signed_delta and of the alignment nudge.
ROLL_LIMIT_SLACK_DEG = 1e-6

# Monte Carlo draws this close to an endpoint of the success set take the
# scalar path.  The set's endpoint c - C_i and the roll the scalar path
# meets at the tee's onset differ by the rounding of the reference-shift
# chain C_i, a few ulps of 360 per segment boundary, and in_singularity
# then adds its ANGLE_SLACK_DEG; the band covers both on networks of far
# more than 10^4 boundaries.
GUARD_DEG = 1e-6

# -- margins relative to a quantity x, applied as margin * (1 + |x|) ---------

# A drive sign can change only near a line (k + 1/2) pi +- deadband (rad)
# and the tee check only near 60 k +- h (deg), k any integer.  Farther
# than LINE_MARGIN * (1 + |x|) from every line each predicate returns what
# exact arithmetic would, so the simulator's block builder holds its value
# up to the next line.  The margin is smallest at x = 0, and there it
# still covers in_singularity's ANGLE_SLACK_DEG ten times.
LINE_MARGIN = 1e-8

# How far (rad, relative to 1 + |alpha|) the alpha run_mission integrates
# may lie from the one a roll step plans: its up to MAX_SUBSTEPS = 10^6
# substeps each round alpha by half an ulp, 10^6 * 2^-53 < 1.2e-10, and
# the products rate * h * gain add a few ulps in all.
BAND_MARGIN = 1e-9

# -- module self-rotation alpha, radians -------------------------------------

# The planner's alignment nudge moves alpha this far past the deadband's
# full width, so that it clears the band.
BAND_CLEARANCE_RAD = 1e-6

# drive_sign accepts a deadband this far above 10 deg: it covers a band
# converted from degrees by a route that rounds differently.
DEADBAND_LIMIT_SLACK_RAD = 1e-12

# -- lengths along and across the pipe, mm -----------------------------------

# A tee turn whose equivalent radius lies within this of the smallest
# radius the differential turn reaches is unreachable (planner), and one
# within it of forward_turn_radius may reverse a module (success_set):
# so close to the bound the rounding of the turn's solve decides.
RADIUS_SLACK_MM = 1e-9

# A tee's exit run shorter than this is left out of the plan: it is the
# rounding of arc length - approach - turn, not a run.
MIN_EXIT_RUN_MM = 1e-9

# s may pass either end of its segment by this much before the robot
# crosses the boundary, so a step planned to end on a boundary stays on
# its segment when its sum lands a rounding past it.
BOUNDARY_TOL_MM = 1e-12

# The floor of end_tol_mm, the tolerance of the completion check.
END_TOL_FLOOR_MM = 1e-6


def end_tol_mm(longest_mm: float) -> float:
    """How far short (mm) of the network's end a mission may stop and
    still complete, for a network whose longest segment has arc length
    ``longest_mm``.

    s is a sum of at most MAX_SUBSTEPS substeps.  Each addition rounds by
    at most 2^-53 |s|, and |s| stays within the arc length of the segment
    it is summed on; a boundary crossing subtracts that length and
    carries the error into the next segment.  So s ends within
    MAX_SUBSTEPS * 2^-53 * longest_mm of its exact value, about 1.1e-10
    per mm.  Twice that covers the few other roundings (the substep's ds,
    the step's duration and its partial last substep), and END_TOL_FLOOR_MM
    bounds it from below.
    """
    return max(END_TOL_FLOOR_MM, MAX_SUBSTEPS * 2.0 ** -52 * longest_mm)


# -- rates -------------------------------------------------------------------

# Chain drive rates (rad/s) and an axial speed (mm/s) below this are
# zero: a step whose chains drive while its v_cz is zero has stalled.
STALL_SPEED = 1e-12

# An angular-speed norm (rad/s) below this is straight drive, whose radius
# of curvature is infinite.
ANGULAR_SPEED_EPS = 1e-12

# -- integration time --------------------------------------------------------

# A step whose duration / dt lies within this above a whole number n takes
# n substeps, not n + 1 for the rounding of the ratio.
SUBSTEP_RATIO_SLACK = 1e-12

# The partial last substep of a multi-substep step is dropped when it is
# at most this long (s): it is then the rounding remainder of
# duration - (n - 1) dt.
MIN_PARTIAL_SUBSTEP_S = 1e-15

# -- sections ----------------------------------------------------------------

# An EllipseSection's semi-major axis may differ from b / cos(phi) by this
# fraction: cross_section_at forms it by that one division.
SECTION_REL_TOL = 1e-9
