//! Device quiescing and restoration (§4.2.3).
//!
//! Before a transplant, the guest is notified "similarly to what is done
//! on Azure with the Scheduled Events API" and prepares each device class
//! differently:
//!
//! * **pass-through** — the guest driver pauses the device, leaving driver
//!   state in guest memory (which transplants untouched); restoration is a
//!   resume notification;
//! * **emulated block** — in-flight requests drain so the emulation state
//!   is consistent when copied/translated;
//! * **emulated network** — unplugged entirely and rescanned after
//!   restoration (TCP connections survive the interruption);
//! * **console** — transmit buffers flush.
//!
//! Both hypervisor models share these rules; each invokes them from its
//! `notify_prepare_transplant` and restore paths.

use hypertp_sim::SimDuration;
use hypertp_uisr::DeviceState;

use crate::error::HtpError;

/// Guest notification round-trip cost.
pub const NOTIFY_RTT: SimDuration = SimDuration::from_millis(5);
/// Cost of draining one in-flight block request.
pub const DRAIN_PER_REQUEST: SimDuration = SimDuration::from_micros(800);
/// Cost of a guest-side network unplug.
pub(crate) const NET_UNPLUG: SimDuration = SimDuration::from_millis(20);
/// Cost of pausing a pass-through device through its guest driver.
pub(crate) const PASSTHROUGH_PAUSE: SimDuration = SimDuration::from_millis(50);
/// Cost of flushing a console transmit buffer.
pub(crate) const CONSOLE_FLUSH: SimDuration = SimDuration::from_millis(1);

/// Quiesces every device in place and returns the simulated time the
/// guest took (runs before the VM is paused, so this is preparation time,
/// not downtime).
pub fn quiesce(devices: &mut [DeviceState]) -> SimDuration {
    let mut cost = NOTIFY_RTT;
    for dev in devices.iter_mut() {
        match dev {
            DeviceState::Block {
                pending_requests, ..
            } => {
                cost += DRAIN_PER_REQUEST * *pending_requests as u64;
                *pending_requests = 0;
            }
            DeviceState::Network { unplugged, .. } => {
                if !*unplugged {
                    *unplugged = true;
                    cost += NET_UNPLUG;
                }
            }
            DeviceState::Console { tx_buffered } => {
                if *tx_buffered > 0 {
                    *tx_buffered = 0;
                    cost += CONSOLE_FLUSH;
                }
            }
            DeviceState::PassThrough { guest_paused, .. } => {
                if !*guest_paused {
                    *guest_paused = true;
                    cost += PASSTHROUGH_PAUSE;
                }
            }
        }
    }
    cost
}

/// Verifies that every device is in a transplant-safe state; the save
/// path refuses to translate inconsistent emulation state.
pub fn check_quiesced(devices: &[DeviceState]) -> Result<(), HtpError> {
    for dev in devices {
        match dev {
            DeviceState::Block {
                pending_requests, ..
            } if *pending_requests > 0 => {
                return Err(HtpError::IncompatibleState {
                    section: "devices",
                    detail: format!(
                        "block device has {pending_requests} in-flight requests; \
                         guest not quiesced"
                    ),
                });
            }
            DeviceState::PassThrough {
                bdf, guest_paused, ..
            } if !guest_paused => {
                return Err(HtpError::IncompatibleState {
                    section: "devices",
                    detail: format!("pass-through device {bdf} not paused by the guest"),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Restores devices after transplant: re-plugs networks (the rescan) and
/// resumes pass-through devices. Returns the restoration-side device cost.
pub fn restore(devices: &mut [DeviceState]) -> SimDuration {
    let mut cost = SimDuration::ZERO;
    for dev in devices.iter_mut() {
        match dev {
            DeviceState::Network { unplugged, .. } if *unplugged => {
                *unplugged = false;
                cost += NET_UNPLUG;
            }
            DeviceState::PassThrough { guest_paused, .. } if *guest_paused => {
                *guest_paused = false;
                cost += NOTIFY_RTT;
            }
            _ => {}
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_devices() -> Vec<DeviceState> {
        vec![
            DeviceState::Block {
                backend: "nbd://x".into(),
                sectors: 100,
                pending_requests: 12,
            },
            DeviceState::Network {
                mac: [0; 6],
                unplugged: false,
            },
            DeviceState::Console { tx_buffered: 64 },
            DeviceState::PassThrough {
                bdf: "0000:03:00.0".into(),
                guest_paused: false,
            },
        ]
    }

    #[test]
    fn quiesce_clears_everything() {
        let mut devs = busy_devices();
        assert!(check_quiesced(&devs).is_err());
        let cost = quiesce(&mut devs);
        assert!(cost > NOTIFY_RTT);
        check_quiesced(&devs).unwrap();
        assert!(matches!(
            devs[1],
            DeviceState::Network {
                unplugged: true,
                ..
            }
        ));
        assert!(matches!(
            devs[3],
            DeviceState::PassThrough {
                guest_paused: true,
                ..
            }
        ));
    }

    #[test]
    fn quiesce_cost_scales_with_queue_depth() {
        let mut shallow = vec![DeviceState::Block {
            backend: "x".into(),
            sectors: 1,
            pending_requests: 1,
        }];
        let mut deep = vec![DeviceState::Block {
            backend: "x".into(),
            sectors: 1,
            pending_requests: 1000,
        }];
        assert!(quiesce(&mut deep) > quiesce(&mut shallow));
    }

    #[test]
    fn quiesce_is_idempotent() {
        let mut devs = busy_devices();
        quiesce(&mut devs);
        let second = quiesce(&mut devs);
        assert_eq!(second, NOTIFY_RTT, "nothing left to do but the RTT");
    }

    #[test]
    fn restore_replugs_and_resumes() {
        let mut devs = busy_devices();
        quiesce(&mut devs);
        let cost = restore(&mut devs);
        assert!(cost > SimDuration::ZERO);
        assert!(matches!(
            devs[1],
            DeviceState::Network {
                unplugged: false,
                ..
            }
        ));
        assert!(matches!(
            devs[3],
            DeviceState::PassThrough {
                guest_paused: false,
                ..
            }
        ));
    }

    #[test]
    fn unquiesced_passthrough_detected() {
        let devs = vec![DeviceState::PassThrough {
            bdf: "0000:01:00.0".into(),
            guest_paused: false,
        }];
        assert!(matches!(
            check_quiesced(&devs),
            Err(HtpError::IncompatibleState {
                section: "devices",
                ..
            })
        ));
    }
}
