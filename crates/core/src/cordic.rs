//! CORDIC sine/cosine (§VI-A "CORDIC Sine/Cosine"): the classic
//! shift-and-add rotation algorithm of Volder, expressed with the library's
//! tensor operations. Each iteration rotates every element by
//! `±atan(2^-i)` — the direction is a data-dependent multiplexer, so all
//! threads execute the same instruction stream.

use crate::tensor::Tensor;
use crate::Result;
use pim_isa::DType;

/// CORDIC iterations: enough for full `f32` mantissa convergence.
pub const CORDIC_ITERS: usize = 24;

/// `atan(2^-i)` table (f32).
fn atan_table() -> [f32; CORDIC_ITERS] {
    let mut t = [0.0f32; CORDIC_ITERS];
    for (i, v) in t.iter_mut().enumerate() {
        *v = (2.0f64.powi(-(i as i32))).atan() as f32;
    }
    t
}

/// The CORDIC gain `K = Π cos(atan(2^-i))`.
fn cordic_gain() -> f32 {
    let mut k = 1.0f64;
    for i in 0..CORDIC_ITERS {
        k *= (2.0f64.powi(-(i as i32))).atan().cos();
    }
    k as f32
}

impl Tensor {
    /// Computes `(sin(θ), cos(θ))` element-wise via CORDIC rotations.
    /// Accurate to a few ULP for `θ ∈ [-π/2, π/2]` (the domain the paper's
    /// benchmark draws from).
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on allocation errors.
    pub fn sin_cos(&self) -> Result<(Tensor, Tensor)> {
        self.expect_dtype(DType::Float32)?;
        let atans = atan_table();
        // x starts as the gain, y as zero, z as θ (an aligned copy).
        let (zero, mut x, mut z) = self.device().step(|p| {
            let zero = p.full_like(self, DType::Float32, 0.0f32.to_bits())?;
            let x = p.full_like(self, DType::Float32, cordic_gain().to_bits())?;
            Ok((zero, x, p.moved(self, self)?))
        })?;
        let mut y = zero.clone();
        for (i, &a) in atans.iter().enumerate().take(CORDIC_ITERS) {
            let pow = 2.0f32.powi(-(i as i32));
            let d_pos = z.ge(&zero)?;
            let tx = (&x * pow)?;
            let ty = (&y * pow)?;
            let x_new = d_pos.select(&(&x - &ty)?, &(&x + &ty)?)?;
            let y_new = d_pos.select(&(&y + &tx)?, &(&y - &tx)?)?;
            let z_new = d_pos.select(&(&z - a)?, &(&z + a)?)?;
            x = x_new;
            y = y_new;
            z = z_new;
        }
        Ok((y, x))
    }

    /// Element-wise sine via CORDIC (`θ ∈ [-π/2, π/2]`).
    ///
    /// # Errors
    ///
    /// See [`sin_cos`](Tensor::sin_cos).
    pub fn sin(&self) -> Result<Tensor> {
        Ok(self.sin_cos()?.0)
    }

    /// Element-wise cosine via CORDIC (`θ ∈ [-π/2, π/2]`).
    ///
    /// # Errors
    ///
    /// See [`sin_cos`](Tensor::sin_cos).
    pub fn cos(&self) -> Result<Tensor> {
        Ok(self.sin_cos()?.1)
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;
    use pim_arch::PimConfig;

    #[test]
    fn gain_and_table_are_consistent() {
        // K = prod cos(atan(2^-i)) ~ 0.607253; atan(1) = pi/4.
        assert!((super::cordic_gain() - 0.607_252_9).abs() < 1e-6);
        assert!((super::atan_table()[0] - std::f32::consts::FRAC_PI_4).abs() < 1e-7);
    }

    #[test]
    fn known_angles() {
        let dev = Device::new(PimConfig::small().with_crossbars(1).with_rows(8)).unwrap();
        let t = dev
            .from_slice_f32(&[
                0.0,
                std::f32::consts::FRAC_PI_2,
                -std::f32::consts::FRAC_PI_2,
                std::f32::consts::FRAC_PI_6,
            ])
            .unwrap();
        let (s, c) = t.sin_cos().unwrap();
        let sv = s.to_vec_f32().unwrap();
        let cv = c.to_vec_f32().unwrap();
        assert!(sv[0].abs() < 1e-6 && (cv[0] - 1.0).abs() < 1e-6);
        assert!((sv[1] - 1.0).abs() < 1e-5 && cv[1].abs() < 1e-5);
        assert!((sv[2] + 1.0).abs() < 1e-5);
        assert!((sv[3] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn rejects_int_tensors() {
        let dev = Device::new(PimConfig::small().with_crossbars(1).with_rows(8)).unwrap();
        let t = dev.from_slice_i32(&[1, 2]).unwrap();
        assert!(t.sin().is_err());
        assert!(t.cos().is_err());
    }
}
