use serde::{Deserialize, Serialize};
use snn_tensor::{Shape, Tensor};

/// One address-event: a spike at spatial location `(x, y)` on `channel`
/// (polarity for DVS data, frequency bin for audio) at tick `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Horizontal pixel coordinate (0 for 1-D channel data).
    pub x: u16,
    /// Vertical pixel coordinate (0 for 1-D channel data).
    pub y: u16,
    /// Channel: DVS polarity (0 = ON, 1 = OFF) or audio frequency bin.
    pub channel: u16,
    /// Simulation tick.
    pub t: u32,
}

/// Rasterizes an event list into the dense `[T × (c·h·w)]` spike tensor
/// the simulator consumes. Events outside the volume are ignored;
/// duplicate events collapse to a single spike.
///
/// # Example
///
/// ```
/// use snn_datasets::{events_to_tensor, Event};
///
/// let events = [Event { x: 1, y: 0, channel: 0, t: 2 }];
/// let t = events_to_tensor(&events, 2, 2, 2, 4);
/// assert_eq!(t.shape().dims(), &[4, 8]);
/// assert_eq!(t.sum(), 1.0);
/// // channel-major layout within a tick: offset = (c*h + y)*w + x
/// assert_eq!(t[[2usize, 1usize]], 1.0);
/// ```
pub fn events_to_tensor(events: &[Event], c: usize, h: usize, w: usize, steps: usize) -> Tensor {
    let features = c * h * w;
    let mut out = Tensor::zeros(Shape::d2(steps, features));
    let data = out.as_mut_slice();
    for e in events {
        let (x, y, ch, t) = (e.x as usize, e.y as usize, e.channel as usize, e.t as usize);
        if x >= w || y >= h || ch >= c || t >= steps {
            continue;
        }
        data[t * features + (ch * h + y) * w + x] = 1.0;
    }
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;

    #[test]
    fn out_of_volume_events_are_dropped() {
        let events = [
            Event { x: 9, y: 0, channel: 0, t: 0 },
            Event { x: 0, y: 9, channel: 0, t: 0 },
            Event { x: 0, y: 0, channel: 9, t: 0 },
            Event { x: 0, y: 0, channel: 0, t: 9 },
        ];
        let t = events_to_tensor(&events, 2, 3, 3, 4);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn duplicates_collapse_to_one_spike() {
        let e = Event { x: 0, y: 0, channel: 0, t: 0 };
        let t = events_to_tensor(&[e, e, e], 1, 1, 1, 1);
        assert_eq!(t.sum(), 1.0);
        assert!(t.is_binary());
    }

    #[test]
    fn layout_is_channel_major_row_major() {
        let e = Event { x: 2, y: 1, channel: 1, t: 0 };
        let t = events_to_tensor(&[e], 2, 3, 4, 1);
        // offset = (1*3 + 1)*4 + 2 = 18
        assert_eq!(t[18], 1.0);
    }
}
