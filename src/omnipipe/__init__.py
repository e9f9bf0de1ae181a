"""Kinematics, singularity geometry and mission simulation for a
three-module omnidirectional in-pipe robot.

The robot presses three crawler modules against the pipe wall 120 deg
apart.  Driving the modules at equal rates translates it along the pipe;
differential rates tilt its twist for negotiating bends; spinning the
modules about their own axes rolls the whole robot in place.  This
package maps motor rates to twists and back (kinematics), locates the
roll orientations that lose wall contact in T-junctions (singularity),
models pipe networks (pipenet), schedules missions (planner), and
integrates them deterministically (sim), with a CLI on top.
"""

from .drive import (drive_sign, roll, rolling_gain, shift_reference,
                    signed_drive)
from .errors import (InsufficientReachError, InvalidGeometryError,
                     InvalidSectionError, NetworkValidationError,
                     NoEscapeError, OmnipipeError, PlanError,
                     SimulationError, UndefinedCurvatureError)
from .kinematics import (ANGULAR_SPEED_EPS, CommandVector, ModuleVelocities,
                         RobotGeometry, TwistVector, center_velocity,
                         coriolis_transform, forward_kinematics,
                         inverse_kinematics, jacobian, jacobian_inverse,
                         module_linear_velocities, module_positions,
                         radius_of_curvature, with_nominal_arms)
from .pipenet import (PipeNetwork, PipeSegment, RatioMode, SegmentKind,
                      TeeExit, elbow, load_network, module_path_radii,
                      network_from_dict, network_to_dict, network_to_json,
                      reference_rolls, straight, tee)
from .planner import (REFERENCE_GEOMETRY, MissionStep, PlannerConfig,
                      StepKind, holonomic_rotate_step, plan_elbow,
                      plan_mission, plan_straight, plan_tee, plan_to_dict,
                      plan_to_json, region_for_tee)
from .sim import (TRAJECTORY_CSV_HEADER, MissionOutcome, MonteCarloResult,
                  SimState, Trajectory, TrajectoryRecord, monte_carlo_tee,
                  outcome_to_json, run_mission, step, success_set,
                  write_trajectory_csv)
from .singularity import (CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD,
                          EllipseSection, SingularityRegion,
                          calibrate_reach_for_sector, contact_loss_arcs,
                          cross_section_at, ellipse_radial_distance,
                          escape_rotation, failure_probability,
                          in_singularity, preferred_orientations,
                          sweep_t_junction)

__version__ = "0.1.0"
