"""phonoradar: co-simulation and analysis toolkit linking radar-measured neck
vibration to voiced speech.

The forward path synthesizes vocal fold displacement, glottal excitation,
speech, and neck displacement for simulated speakers, and models an FMCW
radar measuring that displacement. The inverse path recovers a displacement
estimate from speech alone (LPC inverse filtering, integration, delay
alignment) and the evaluation machinery compares candidates against the
radar displacement with log-spectral distance and paired t-tests.

Import from the submodules (phonoradar.synth, phonoradar.radar, ...): the
package root holds only __version__ and loads no numpy, so that each stage
process loads only its own layer.
"""

__version__ = "0.1.0"
