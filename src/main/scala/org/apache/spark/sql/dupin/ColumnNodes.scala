package org.apache.spark.sql.dupin

import org.apache.spark.sql.Column
import org.apache.spark.sql.internal.{Literal, UnresolvedAttribute}
import org.apache.spark.sql.types.DataType

/** The two shapes of an unanalysed `Column` that `repro.core.SparkPeeling`
  * reads without a projection. Spark keeps its column nodes `private[sql]`,
  * so they are matched here, inside its package.
  */
object ColumnNodes {

  /** The value and the given type (none for `lit`) of a literal column. */
  def literal(c: Column): Option[(Any, Option[DataType])] = c.node match {
    case Literal(v, dt, _) => Some((v, dt))
    case _ => None
  }

  /** The name of a one-part column reference bound to no frame, as
    * `col("x")` makes.
    */
  def name(c: Column): Option[String] = c.node match {
    case UnresolvedAttribute(Seq(n), None, false, _) => Some(n)
    case _ => None
  }
}
