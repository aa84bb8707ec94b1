package repro.testkit

import repro.local.PeelResult

object PeelView {
  /** Every field of `r`, its arrays as `Seq`s, so two results compare
    * with `==`.
    */
  def view(r: PeelResult) =
    (r.bestSet.toSeq, r.bestDensity, r.rounds, r.longTailPeels, r.sparseTrims, r.history, r.order.toSeq,
      r.truncated)
}
