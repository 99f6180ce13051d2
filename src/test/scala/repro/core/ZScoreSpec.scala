package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Z-score arithmetic. */
class ZScoreSpec extends AnyFunSuite {

  test("scalar z formula matches hand computation") {
    // Z = sqrt(n) (real - rand) / sigma = sqrt(10000) * 0.5 / 2 = 25
    assert(math.abs(ZScore.z(2.5, 2.0, 2.0, 10000) - 25.0) < 1e-12)
  }

  test("z is negative when the real cuisine scores below random") {
    assert(ZScore.z(1.0, 2.0, 1.0, 100) == -10.0)
  }

  test("z is zero for identical scores") {
    assert(ZScore.z(2.0, 2.0, 1.0, 100) == 0.0)
  }

  test("z scales with the square root of the number of random recipes") {
    val z1 = ZScore.z(2.5, 2.0, 1.0, 100)
    val z2 = ZScore.z(2.5, 2.0, 1.0, 400)
    assert(math.abs(z2 / z1 - 2.0) < 1e-12)
  }

  test("z rejects a non-positive or NaN sigma_rand instead of returning Inf or NaN") {
    // Every random recipe scoring the same gives sigma_rand = 0.
    for (sigma <- Seq(0.0, -1.0, Double.NaN)) {
      val e = intercept[IllegalArgumentException](ZScore.z(2.5, 2.0, sigma, 100))
      assert(e.getMessage.contains("sigma_rand"))
    }
  }
}
