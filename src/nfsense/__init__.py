"""nfsense: near-field Wi-Fi multi-person sensing simulator and toolkit."""

__version__ = "0.1.0"

from .geometry import (FeasibilityMap, Mover, Point2D, RadioConfig,
                       variation_power, variation_power_exact, vir, vir_map)
from .capacity import (CapacityQuery, FitParams, capacity_curve, delta_d_min,
                       delta_d_min_exact, mirror_series, n_max, n_max_exact,
                       radial_fit, radial_series)
from .scene import (CsiSeries, MotionProfile, Scene, SceneUser, displacement,
                    render_baseline, render_csi)
from .traffic import SampleTimes, TrafficModel, generate_arrivals
from .bfi import (BeamformingMatrix, BfiReport, ChannelMatrix, MotionUpdate,
                  apply_motion, bfi_sensitivity_demo, compress, decompress,
                  phase_normalize, svd_decompose)
from .sra import (Dataset, ResampledSeries, Spectrogram, SraConfig,
                  build_dataset, make_mask, normalize, process_series,
                  resample, segment, spectrogram)
from .tcn import (TcnConfig, TcnModel, TrainConfig, forward, load_model,
                  loss_and_gradients, save_model, train)
from .metrics import (ComparisonReport, RateEstimate, compare_csi_bfi,
                      estimate_rate, recovery_mse, spectral_entropy)
from .coordinator import Decision, Registration, Registry
