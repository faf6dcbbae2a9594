"""phonoradar: co-simulation and analysis toolkit linking radar-measured neck
vibration to voiced speech.

The forward path synthesizes vocal fold displacement, glottal excitation,
speech, and neck displacement for simulated speakers, and models an FMCW
radar measuring that displacement. The inverse path recovers a displacement
estimate from speech alone (LPC inverse filtering, integration, delay
alignment) and the evaluation machinery compares candidates against the
radar displacement with log-spectral distance and paired t-tests.
"""

from .signals import FramePlan, SampledSignal, frame_signal, resample_decimate
from .synth import (GlottalConfig, NeckChannel, SyntheticSubject, VocalTractModel,
                    excitation_from_displacement, make_subject, neck_displacement,
                    random_vocal_tract, synth_vocal_fold_displacement,
                    synthesize_speech)
from .lpc import LpcModel, autocorrelation, levinson_durbin
from .transform import (NoVoicedFramesError, TransformConfig, integrate_excitation,
                        transform_speech)
from .radar import (ChirpConfig, NoCoherentTargetError, TargetScene, add_range_noise,
                    measure_displacement)
from .metrics import (PowerSpectrum, SilentFrameError, log_spectral_distance, loess_smooth,
                      lsd_over_windows)
from .stats import descriptive_stats, paired_t_test, student_t_cdf, student_t_two_sided_p

__version__ = "0.1.0"
